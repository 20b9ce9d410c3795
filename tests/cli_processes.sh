#!/usr/bin/env bash
# Runs every diagchan subcommand as a process (python -m diagchan) at n = 3,
# with RuntimeWarnings as errors, and checks each exit code; a run that
# exits 0 must print to stdout and leave stderr empty, and a verify run
# that exits 3 is checked for its verdict where it matters. Run from the
# repository root with the package importable, e.g.
#
#     PYTHONPATH=src bash tests/cli_processes.sh
set -u
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
echo '{"shape":[3,3],"entries":[[[0.5,0],[0,0],[0,0]],[[0,0],[0.25,0],[0,0]],[[0,0],[0,0],[0.25,0]]]}' \
    > "$dir/state.json"
echo '[1, 1, 0, 0, 1, 0, 0, 0.1, 0.1]' > "$dir/not_cp.json"
# A CP channel's coefficients scaled by 2^520: entries near 1e156, whose
# squares overflow. CP, but not TP.
third=1.1441329433551016e+156
echo "[3.432398830065305e+156, $third, $third, $third, -$third, -$third, -$third, 0, 0]" \
    > "$dir/scaled_cp.json"
failed=0

check() {
    local expected=$1
    shift
    python -W error::RuntimeWarning -m diagchan "$@" > "$dir/out" 2> "$dir/err"
    local code=$?
    local verdict=ok
    if [ "$code" -ne "$expected" ]; then
        verdict="FAIL (expected exit $expected)"
    elif [ "$code" -eq 0 ] && { [ -s "$dir/err" ] || [ ! -s "$dir/out" ]; }; then
        verdict="FAIL (stderr not empty or stdout empty)"
    fi
    echo "$verdict: exit $code: diagchan ${*//"$dir/"/}"
    if [ "$verdict" != ok ]; then
        failed=1
        cat "$dir/err"
    fi
}

# The last run's stdout must contain the given text.
expect_stdout() {
    if grep -qF "$1" "$dir/out"; then
        echo "ok: stdout has $1"
    else
        echo "FAIL: stdout lacks $1"
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
# One ulp inside the lower end a closed-form pivot rounds to zero.
check 4 kraus "${hybrid[@]}" --p=-0.19999999999999998 --method theorem4
check 0 verify "${family[@]}"
check 3 verify --coefficients "$dir/not_cp.json"
check 3 verify --coefficients "$dir/scaled_cp.json"
expect_stdout '"cp":true,"tp":false'
# Kraus extraction and verify at sizes where an n^4-sized Kraus array
# would dominate the run.
check 0 kraus --n 24 --family depolarizing --p 0.3
check 0 verify --n 64 --family depolarizing --p 0.3
check 0 apply "${family[@]}" --input "$dir/state.json"
check 0 transition "${family[@]}"
check 2 choi --n 3 --family depolarizing --p 2
exit "$failed"
