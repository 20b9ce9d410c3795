#!/usr/bin/env bash
# Runs every diagchan subcommand as a process (python -m diagchan) at n = 3,
# and the dense commands at n = 32 and just past their size limit, with
# RuntimeWarnings as errors, and checks each exit code; a run that exits 0
# must write its document (to stdout, or to the file that ends its command
# line after --output) and leave stderr empty, a verify run that exits 3 is
# checked for its verdict where it matters, and a refused run for the error
# it names. Run from the repository root with the package importable, e.g.
#
#     PYTHONPATH=src bash tests/cli_processes.sh
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
echo '{"shape":[3,3],"entries":[[[0.5,0],[0,0],[0,0]],[[0,0],[0.25,0],[0,0]],[[0,0],[0,0],[0.25,0]]]}' \
    > "$dir/state.json"
# The pure state of (0.6, 0.48, 0.64): unit trace exactly; its two zero
# eigenvalues come out of LAPACK as rounding errors, one of them -3.5e-17.
echo '{"shape":[3,3],"entries":[[[0.36,0],[0.288,0],[0.384,0]],[[0.288,0],[0.2304,0],[0.3072,0]],[[0.384,0],[0.3072,0],[0.4096,0]]]}' \
    > "$dir/pure.json"
# Eigenvalues 0.5, 0.501 and -1e-3.
echo '{"shape":[3,3],"entries":[[[0.5,0],[0,0],[0,0]],[[0,0],[0.501,0],[0,0]],[[0,0],[0,0],[-0.001,0]]]}' \
    > "$dir/indefinite.json"
echo '[1, 1, 0, 0, 1, 0, 0, 0.1, 0.1]' > "$dir/not_cp.json"
# A CP channel's coefficients scaled by 2^520: entries near 1e156, whose
# squares overflow. CP, but not TP.
third=1.1441329433551016e+156
echo "[3.432398830065305e+156, $third, $third, $third, -$third, -$third, -$third, 0, 0]" \
    > "$dir/scaled_cp.json"
# A coupling of 0.5 over the subnormal diagonal entry 5e-311: at --tol 0 its
# least pivot overflows the float range, to inf.
echo '[1e-310, 0.5, 0.5, 0]' > "$dir/subnormal.json"
# s = a = 1e308: (s + a)/2 overflows the float range, s/2 + a/2 does not.
echo '[1, 1e308, 1e308, 0]' > "$dir/huge_pair.json"
# Its smallest Choi eigenvalue, -1e-11, passes the eigenvalue test at the
# default --tol; a pivot of the factor fails its relative test.
echo '[1e-3, 5.0000001e-4, -5.0000001e-4, 0]' > "$dir/pivot_refused.json"
# Unit trace, off-diagonal 1e308: the squares in its Frobenius norm overflow.
echo '{"shape":[2,2],"entries":[[[0.5,0],[1e308,0]],[[1e308,0],[0.5,0]]]}' > "$dir/huge_state.json"
# Nested deeper than the JSON parser's recursion limit.
python -c "print('[' * 100000 + ']' * 100000)" > "$dir/deep.json"
failed=0

check() {
    local expected=$1
    shift
    python -W error::RuntimeWarning -m diagchan "$@" > "$dir/out" 2> "$dir/err"
    local code=$?
    local written=$dir/out
    if [ "$#" -ge 2 ] && [ "${@: -2:1}" = --output ]; then
        written=${@: -1}
    fi
    local verdict=ok
    if [ "$code" -ne "$expected" ]; then
        verdict="FAIL (expected exit $expected)"
    elif [ "$code" -eq 0 ] && { [ -s "$dir/err" ] || [ ! -s "$written" ]; }; then
        verdict="FAIL (stderr not empty or no document written)"
    fi
    echo "$verdict: exit $code: diagchan ${*//"$dir/"/}"
    if [ "$verdict" != ok ]; then
        failed=1
        cat "$dir/err"
    fi
}

# The last run's stdout (out) or stderr (err) must contain the given text.
expect() {
    if grep -qF "$2" "$dir/$1"; then
        echo "ok: std$1 has $2"
    else
        echo "FAIL: std$1 lacks $2"
        failed=1
        cat "$dir/out" "$dir/err"
    fi
}

family=(--n 3 --family depolarizing --p 0.2)
hybrid=(--n 3 --family hybrid_depolarizing_classical)
check 0 basis --n 3
check 0 choi "${family[@]}"
check 0 kraus "${family[@]}"
check 0 kraus "${hybrid[@]}" --p 0.1 --method theorem4
check 3 kraus --coefficients "$dir/subnormal.json" --tol 0
expect err "needs inf"
# One ulp inside the lower end a closed-form pivot rounds to zero.
check 4 kraus "${hybrid[@]}" --p=-0.19999999999999998 --method theorem4
check 0 verify "${family[@]}"
check 3 verify --coefficients "$dir/not_cp.json"
check 3 verify --coefficients "$dir/scaled_cp.json"
expect out '"cp":true,"tp":false'
check 3 verify --coefficients "$dir/huge_pair.json"
expect out '"cp":false'
check 3 kraus --coefficients "$dir/huge_pair.json"
expect err "pivot 5.000000e-01 at index 0"
check 0 choi --coefficients "$dir/huge_pair.json"
check 3 verify --coefficients "$dir/pivot_refused.json"
expect out '"cp":false'
expect err "error: channel is not completely positive: pivot 5.000000e-04 at index 1"
check 2 verify --coefficients "$dir/deep.json"
expect err "JSON nested too deeply"
# Kraus extraction and verify at sizes where an n^4-sized Kraus array
# would dominate the run.
check 0 kraus --n 24 --family depolarizing --p 0.3
check 0 verify --n 64 --family depolarizing --p 0.3
check 0 apply "${family[@]}" --input "$dir/state.json"
# A pure state is accepted at the default --tol. At --tol 0 the smallest
# eigenvalue decides, and its rounding error is negative.
check 0 apply "${family[@]}" --input "$dir/pure.json"
check 2 apply "${family[@]}" --input "$dir/pure.json" --tol 0
check 2 apply "${family[@]}" --input "$dir/indefinite.json"
expect err "semidefinite"
check 2 apply --n 2 --family depolarizing --p 0.1 --input "$dir/huge_state.json"
expect err "semidefinite"
check 0 transition "${family[@]}"
check 2 choi --n 3 --family depolarizing --p 2
# The dense commands at n = 32, each written to a file.
large=(--n 32 --family depolarizing --p 0.3)
check 0 choi "${large[@]}" --output "$dir/choi.json"
check 0 kraus "${large[@]}" --output "$dir/kraus.json"
check 0 basis --n 32 --output "$dir/basis.json"
# One past the largest n whose dense arrays fit the limit.
check 2 choi --n 65 --family depolarizing --p 0.3
expect err "above the limit of 268435456 bytes (n <= 64)"
exit "$failed"
