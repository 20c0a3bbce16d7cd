package main

import "fmt"

type layerKey struct{ name, unit string }

// perLayer is the traced run's ledger, in report order. Every workload
// reports every figure; one its run does not produce reads 0 (for
// example transport frame counts in process, or prefetch counters
// where the cache is off).
var perLayer = []layerKey{
	{"engine.pipeline_s", "s"}, {"engine.pre_s", "s"}, {"engine.post_s", "s"},
	{"engine.tasks", "count"}, {"engine.parks", "count"}, {"engine.notes", "count"},
	{"engine.idle_share_mean", "share"}, {"engine.idle_share_max", "share"},
	{"csp.blocked_scans", "count"}, {"csp.admit_delays", "count"}, {"csp.blocked_scan_ratio", "ratio"},
	{"csp.add_subnet_ms", "ms"}, {"csp.schedule_ns", "ns"}, {"csp.mark_written_ns", "ns"},
	{"trace.events", "count"}, {"trace.canonical_ms", "ms"}, {"trace.per_layer_equal_ms", "ms"}, {"trace.merge_ms", "ms"},
	{"fault.saves", "count"}, {"fault.snapshot_ms_p50", "ms"}, {"fault.snapshot_ms_p90", "ms"},
	{"fault.snapshot_total_ms", "ms"}, {"fault.snapshot_share", "share"}, {"fault.weight_checksum_ms", "ms"},
	{"fault.durable_lag_p90", "subnets"},
	{"train.sequential_ms", "ms"}, {"train.replay_ms", "ms"}, {"train.step_us", "us"},
	{"supernet.checksum_ms", "ms"}, {"supernet.build_ms", "ms"},
	{"prefetch.hit_rate", "share"}, {"prefetch.late", "count"}, {"prefetch.dropped", "count"},
	{"transport.frames_sent", "count"}, {"transport.frames_recv", "count"}, {"transport.retransmits", "count"},
	{"transport.tcp_rtt_us_p50", "us"}, {"transport.tcp_rtt_us_p90", "us"},
	{"transport.chan_rtt_us_p50", "us"}, {"transport.chan_rtt_us_p90", "us"}, {"transport.tcp_frames_per_s", "1/s"},
	{"distrib.fleet_vs_inproc", "ratio"}, {"supervise.incarnations", "count"},
	{"telemetry.overhead_ratio", "ratio"},
	{"ledger.accounted_ms", "ms"}, {"ledger.unaccounted_ms", "ms"}, {"ledger.accounted_share", "share"},
}

// ledger sums the timed layer calls on the workload's blocking path
// and sets the accounted and unaccounted shares of the traced wall
// time (wallS, seconds).
//
// In process, the stage-0 goroutine blocks on every checkpoint
// snapshot (weight checksums included); before the pipeline the
// schedulers register every subnet; after it the engine builds the
// canonical trace and checks per-layer equality; and the numeric
// workload's bitwise check trains the sequential reference, builds
// and checksums a fresh supernet and replays the observed trace.
//
// In the fleet, the coordinator's relay blocks on the same snapshots
// and merges the stage traces before the same bitwise check; each
// worker builds the full canonical trace but registers subnets and
// checks per-layer order for its own stage only, in parallel.
func ledger(w workload, m map[string]metric, wallS float64) {
	v := func(k string) float64 { return m[k].Value }
	acc := v("fault.snapshot_total_ms") + v("trace.canonical_ms")
	if w.fleet {
		acc += v("trace.merge_ms") + (v("csp.add_subnet_ms")+v("trace.per_layer_equal_ms"))/4
	} else {
		acc += v("csp.add_subnet_ms") + v("trace.per_layer_equal_ms")
	}
	if w.spec(0, "").Verify {
		acc += v("train.sequential_ms") + v("supernet.build_ms") + v("supernet.checksum_ms") + v("train.replay_ms")
	}
	wallMs := wallS * 1e3
	m["ledger.accounted_ms"] = metric{acc, "ms"}
	m["ledger.unaccounted_ms"] = metric{wallMs - acc, "ms"}
	m["ledger.accounted_share"] = metric{acc / wallMs, "share"}
	if p := v("engine.pipeline_s"); p > 0 {
		m["fault.snapshot_share"] = metric{v("fault.snapshot_total_ms") / (p * 1e3), "share"}
	}
}

// printLayers prints the ledger one figure per line and fills figures
// the workload does not produce with 0.
func printLayers(m map[string]metric) {
	for _, k := range perLayer {
		if _, ok := m[k.name]; !ok {
			m[k.name] = metric{0, k.unit}
		}
		fmt.Printf("%-28s %14.4f %s\n", k.name, m[k.name].Value, k.unit)
	}
}
