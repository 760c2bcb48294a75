#!/usr/bin/env bash
# Every workload at the applications' unit-test sizes, one repetition
# untraced and one traced, unit-cost drivers at a tenth of their
# samples; under a minute. Exits non-zero on a verification failure, a
# hang, spans that do not nest, or a result line off its schema.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec "$here/run.sh" --smoke "$@"
