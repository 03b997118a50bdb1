#!/bin/sh
# The paper's figures (Sec. V, Figs. 2-4) and four ablations, each one
# `dtnsim sweep` campaign over examples/helsinki_buses.cfg, the Sec. V-A bus
# scenario (lambda = 10, alpha = 0.28, TTL 20 min, 1 MB buffers). An arm
# fixes only its figure's axes and overrides; the caller owns scale and
# execution (--seeds, --seed-base, --set scenario.duration=...,
# --threads / --workers / --hosts, --out):
#
#   examples/paper_figures.sh <arm> [dtnsim sweep flags...]
#   examples/paper_figures.sh fig2 --seeds 10 --seed-base 1000 \
#       --set scenario.duration=10000 --threads 4 --out fig2.json
#
# `dtnsim` is taken from PATH. EXPERIMENTS.md has every arm's paper-scale
# command and results.
set -e
nodes=scenario.nodes=40,80,120,160,200,240
arm=$1
[ $# -gt 0 ] && shift
case $arm in
  fig2)         # Fig. 2: EER and CR against the comparison lineup
    set -- --axis protocol.name=EER,CR,EBR,MaxProp,SprayAndWait,SprayAndFocus \
           --axis "$nodes" "$@" ;;
  fig3)         # Fig. 3: EER under lambda in {6, 8, 10, 12}
    set -- --set protocol.name=EER --axis protocol.copies=6,8,10,12 \
           --axis "$nodes" "$@" ;;
  fig4)         # Fig. 4: CR under lambda in {6, 8, 10, 12}
    set -- --set protocol.name=CR --axis protocol.copies=6,8,10,12 \
           --axis "$nodes" "$@" ;;
  alpha)        # the paper fixes alpha = 0.28
    set -- --set scenario.nodes=120 --axis protocol.name=EER,CR \
           --axis protocol.alpha=0.1,0.28,0.5,1 "$@" ;;
  ttl)          # the paper fixes TTL = 1200 s
    set -- --set scenario.nodes=120 --axis protocol.name=EER,CR,EBR,SprayAndWait \
           --axis traffic.ttl=600,1200,2400 "$@" ;;
  buffer)       # the paper fixes 1 MB; ~5x its load so the buffers fill
    set -- --set scenario.nodes=120 --set traffic.interval_min=5 \
           --set traffic.interval_max=8 --axis protocol.name=EER,CR,MaxProp,SprayAndWait \
           --axis world.buffer_bytes=524288,1048576,2097152,4194304 "$@" ;;
  communities)  # CR on route districts vs detected communities; EER as control
    set -- --set scenario.nodes=120 --set communities.warmup=1500 \
           --axis protocol.name=CR,EER --axis communities.source=auto,detected "$@" ;;
  *)
    echo "usage: $0 fig2|fig3|fig4|alpha|ttl|buffer|communities [dtnsim sweep flags...]" >&2
    exit 2 ;;
esac
exec dtnsim sweep "$(dirname "$0")/helsinki_buses.cfg" "$@"
