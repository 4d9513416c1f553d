#!/bin/sh
# Runs every workload end to end and then traced, from the root of the tree:
#     sh perfbench/all.sh [seed] [seconds]
set -e
for workload in cascade-deep realize-mix grid cone; do
    for trace in 0 1; do
        python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" \
            --seconds "${2:-25}" --trace "$trace"
    done
done
