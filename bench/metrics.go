package main

// target names an end-to-end metric on a workload.
type target struct{ metric, workload string }

func on(metric string, workloads ...string) []target {
	ts := make([]target, len(workloads))
	for i, w := range workloads {
		ts[i] = target{metric, w}
	}
	return ts
}

func both(a, b []target) []target { return append(append([]target(nil), a...), b...) }

const (
	s10 = "steady10"
	t10 = "telemetry10"
	mf  = "manyflow"
	cs  = "chaos-sweep"
	ps  = "paper-suite"
)

// layerMoves declares, for every per-layer metric, which end-to-end
// metric it should move on which workload: written down before anything
// is optimised, so a later change can be checked against it. Names,
// units and directions live in BENCHMARK.json; README.md explains how
// each is measured.
var layerMoves = map[string][]target{
	"sim.events":                 on("round_ms", s10, t10, mf, cs, ps),
	"sim.heap_highwater":         on("round_ms", mf),
	"sim.run_ms":                 on("round_ms", s10, t10, mf),
	"sim.events_per_s":           on("round_ms", s10, t10, mf, cs, ps),
	"sim.residual_ns_per_event":  on("round_ms", s10, mf),
	"sim.iso_ns_per_event_d32":   on("round_ms", s10),
	"sim.iso_ns_per_event_d1k":   on("round_ms", mf),
	"sim.iso_ns_per_event_d100k": on("round_ms", mf),

	"netem.pkts":                         on("round_ms", s10, t10, mf),
	"netem.pkts_per_s":                   on("round_ms", s10, t10, mf),
	"netem.fwd_drop_ratio":               on("round_ms", s10, mf),
	"netem.pool_hit_ratio":               on("alloc_mb_per_round", mf),
	"netem.entry_self_ns_per_pkt":        on("round_ms", s10, mf),
	"netem.port_self_ns_per_pkt":         on("round_ms", s10, mf),
	"netem.iso_link_ns_per_pkt_droptail": on("round_ms", mf),
	"netem.iso_link_ns_per_pkt_red":      on("round_ms", s10),
	"netem.build_ms":                     both(on("round_ms", mf), on("retained_mb", mf)),

	"tcp.sender_self_ns_per_ack":   on("round_ms", mf, ps),
	"tcp.receiver_self_ns_per_pkt": on("round_ms", s10, mf, ps),
	"tcp.acks":                     on("round_ms", mf),
	"tcp.data_pkts":                on("round_ms", s10, mf),
	"tcp.rtx_ratio":                on("round_ms", mf),
	"tcp.timeouts":                 on("round_ms", mf),
	"tcp.iso_ack_ns_tahoe":         on("round_ms", mf, ps),
	"tcp.iso_ack_ns_reno":          on("round_ms", mf, ps),
	"tcp.iso_ack_ns_newreno":       on("round_ms", mf, ps),
	"tcp.iso_ack_ns_sack":          on("round_ms", mf, ps),
	"tcp.iso_ack_ns_sack6675":      on("round_ms", mf, ps),
	"tcp.iso_ack_ns_fack":          on("round_ms", mf, ps),
	"tcp.iso_ack_ns_rightedge":     on("round_ms", mf, ps),
	"tcp.iso_ack_ns_linkung":       on("round_ms", mf, ps),

	"core.sender_self_ns_per_ack": on("round_ms", s10, t10),
	"core.recovery_ack_share":     on("round_ms", s10, t10),
	"core.iso_ack_ns_rr":          on("round_ms", s10, t10),

	"workload.install_ms":          both(on("round_ms", mf), on("retained_mb", mf)),
	"workload.install_us_per_flow": both(on("round_ms", mf), on("retained_mb", mf)),

	"trace.ns_per_event": both(on("round_ms", s10, ps), both(on("alloc_mb_per_round", s10, ps), on("retained_mb", s10, ps))),

	"telemetry.events":                on("round_ms", t10),
	"telemetry.events_per_sim_event":  on("round_ms", t10),
	"telemetry.ndjson_bytes":          on("round_ms", t10),
	"telemetry.emit_ns_ndjson":        both(on("round_ms", t10), on("alloc_mb_per_round", t10)),
	"telemetry.emit_ns_flowtable":     both(on("round_ms", t10), on("alloc_mb_per_round", t10)),
	"telemetry.emit_ns_span":          both(on("round_ms", t10), on("alloc_mb_per_round", t10)),
	"telemetry.nullsink_ns_per_event": on("round_ms", t10),
	"telemetry.iso_emit_ns_ndjson":    on("round_ms", t10),
	"telemetry.iso_emit_ns_ring":      on("round_ms", t10),
	"telemetry.iso_emit_ns_flowtable": on("round_ms", t10),
	"telemetry.iso_emit_ns_span":      on("round_ms", t10),
	"telemetry.iso_emit_ns_series":    on("round_ms", t10),
	"telemetry.iso_emit_ns_metrics":   on("round_ms", t10),
	"telemetry.iso_emit_ns_bounded":   on("round_ms", t10),

	"sweep.jobs":                        on("round_ms", cs, ps),
	"sweep.jobs_failed":                 on("round_ms", cs, ps),
	"sweep.run_ms":                      on("round_ms", cs, ps),
	"sweep.job_busy_ms":                 on("round_ms", cs, ps),
	"sweep.job_ms_p50":                  on("round_ms", cs),
	"sweep.job_ms_max":                  on("round_ms", cs),
	"sweep.overhead_ratio":              on("round_ms", cs, ps),
	"sweep.speedup":                     on("round_ms", cs),
	"sweep.iso_dispatch_ns_per_job_seq": on("round_ms", ps),
	"sweep.iso_dispatch_ns_per_job_par": on("round_ms", cs),

	"experiments.jobs_ms":        on("round_ms", cs, ps),
	"experiments.reduce_ms":      on("round_ms", cs, ps),
	"experiments.render_ms":      on("round_ms", cs, ps),
	"experiments.ms_fig5":        on("round_ms", ps),
	"experiments.ms_fig6":        on("round_ms", ps),
	"experiments.ms_fig7":        on("round_ms", ps),
	"experiments.ms_table5":      on("round_ms", ps),
	"experiments.ms_ackloss":     on("round_ms", ps),
	"experiments.ms_fairshare":   on("round_ms", ps),
	"experiments.ms_twoway":      on("round_ms", ps),
	"experiments.ms_smoothstart": on("round_ms", ps),
	"experiments.ms_bursty":      on("round_ms", ps),
	"experiments.ms_ablation":    on("round_ms", ps),
	"experiments.ms_stress":      on("round_ms", ps),

	"tracing_overhead": on("round_ms", s10, t10, mf, cs, ps),

	"budget.sim_ns_per_event":          on("round_ms", s10, mf),
	"budget.netem_ns_per_event":        on("round_ms", s10, mf),
	"budget.tcp_ns_per_event":          on("round_ms", s10, mf),
	"budget.core_ns_per_event":         on("round_ms", s10, mf),
	"budget.trace_ns_per_event":        on("round_ms", s10),
	"budget.workload_ns_per_event":     on("round_ms", mf),
	"budget.unattributed_ns_per_event": on("round_ms", s10, mf),
	"budget.total_ns_per_event":        on("round_ms", s10, mf),
}
