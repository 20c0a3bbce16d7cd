package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"naspipe"
	"naspipe/internal/csp"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/supernet"
	"naspipe/internal/telemetry"
	"naspipe/internal/trace"
	"naspipe/internal/train"
)

// timedRecorder is the traced run's checkpoint recorder: the file
// recorder the runner would build, with every Snapshot call timed. The
// engine calls Snapshot on the stage-0 goroutine, so its time sits on
// the pipeline's blocking path.
type timedRecorder struct {
	inner *fault.FileRecorder
	mu    sync.Mutex
	ms    []float64
}

func (r *timedRecorder) Snapshot(c fault.Cut) error {
	t := time.Now()
	err := r.inner.Snapshot(c)
	d := since(t)
	r.mu.Lock()
	r.ms = append(r.ms, d)
	r.mu.Unlock()
	return err
}

func (r *timedRecorder) times() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.ms...)
}

// timedWeights wraps a checkpoint weight function, totalling its time.
type timedWeights struct {
	mu sync.Mutex
	ms float64
}

func (t *timedWeights) wrap(fn func(int) uint64) func(int) uint64 {
	return func(cursor int) uint64 {
		s := time.Now()
		sum := fn(cursor)
		d := since(s)
		t.mu.Lock()
		t.ms += d
		t.mu.Unlock()
		return sum
	}
}

func (t *timedWeights) total() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ms
}

// since is the elapsed time in milliseconds.
func since(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// timeMs runs fn once and returns its duration in milliseconds.
func timeMs(fn func()) float64 {
	t := time.Now()
	fn()
	return since(t)
}

// newInstrument builds a traced run's hooks around a fresh bus, sized
// for every task, flow, cache and link event the run can emit, so the
// stream never drops.
func newInstrument(w workload) *instrument {
	return &instrument{bus: telemetry.NewBus(128*w.subnets*4 + 1<<16)}
}

// tracedRuns alternates untraced and traced runs for two thirds of the
// budget, then probes the layers the runs call once each. Run-derived
// layer figures are medians over the traced runs.
func tracedRuns(ctx context.Context, w workload, seed uint64, dir string, budget time.Duration) report {
	if js, err := json.Marshal(w.spec(seed, "<workdir>/ckpt")); err == nil {
		fmt.Printf("jobspec %s\n", js)
	}
	var t tally
	if _, err := runOnce(ctx, w, seed, dir, nil); !t.add("warm-up", err) {
		return report{Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	}
	var plain, traced []runStats
	var perRun []map[string]float64
	var last runStats
	loop(budget*2/3, minPairs, func() int { return len(traced) }, func() time.Duration {
		st, err := runOnce(ctx, w, seed, dir, nil)
		if t.add("untraced", err) {
			plain = append(plain, st)
		}
		ins := newInstrument(w)
		tst, err := runOnce(ctx, w, seed, dir, ins)
		if err == nil {
			err = busComplete(ins.bus)
		}
		if t.add("traced", err) {
			traced = append(traced, tst)
			perRun = append(perRun, runLayers(tst, ins))
			last = tst
		}
		return st.wall + tst.wall
	})
	m := map[string]metric{}
	if len(traced) == 0 {
		return report{Attempted: t.attempted, Failed: t.failed, Metrics: m}
	}
	for _, k := range perLayer {
		if _, ok := perRun[0][k.name]; !ok {
			continue
		}
		var xs []float64
		for _, r := range perRun {
			xs = append(xs, r[k.name])
		}
		m[k.name] = metric{median(xs), k.unit}
		if k.unit == "count" {
			// The exact-count audit: a claim may rest on a count only if
			// it repeats exactly across runs of one input.
			exact := true
			for _, x := range xs {
				exact = exact && x == xs[0]
			}
			fmt.Printf("count audit: %-24s exact=%-5v over %d traced runs %v\n", k.name, exact, len(xs), xs)
		}
	}
	var pw, tw []float64
	for _, st := range plain {
		pw = append(pw, st.wall.Seconds())
	}
	for _, st := range traced {
		tw = append(tw, st.wall.Seconds())
	}
	m["telemetry.overhead_ratio"] = metric{median(tw) / median(pw), "ratio"}

	probes, err := probeLayers(ctx, w, seed, dir, last)
	t.add("layer probe", err)
	for k, v := range probes {
		m[k] = v
	}
	if w.fleet && err == nil {
		err = fleetVsInProc(ctx, w, seed, dir, median(pw), m)
		t.add("in-process twin", err)
	}
	m["supervise.incarnations"] = metric{float64(last.restarts + 1), "count"}
	ledger(w, m, median(tw))
	printLayers(m)
	return report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// busComplete fails a traced run whose telemetry ring overflowed, or
// that published nothing: its per-layer counts would be wrong.
func busComplete(bus *telemetry.Bus) error {
	if d := bus.Dropped(); d > 0 {
		return fmt.Errorf("telemetry bus dropped %d events", d)
	}
	if bus.Len() == 0 {
		return fmt.Errorf("telemetry bus recorded no events")
	}
	return nil
}

// runLayers reads one traced run's layer figures off its result, its
// telemetry stream, the timed recorder and the probe samples. Figures
// a workload's run does not produce read 0 here; for the fleet, the
// checkpoint figures come from probeLayers' recorder replay instead.
func runLayers(st runStats, ins *instrument) map[string]float64 {
	res := st.res
	m := map[string]float64{}
	evs := ins.bus.Events()
	first, last := evs[0].TsNs, evs[0].TsNs
	for _, ev := range evs {
		first = min(first, ev.TsNs)
		last = max(last, ev.TsNs)
	}
	wallNs := st.wall.Nanoseconds()
	m["engine.pipeline_s"] = res.TotalMs / 1e3
	m["engine.pre_s"] = float64(first-ins.startNs) / 1e9
	m["engine.post_s"] = float64(wallNs-(last-ins.startNs)) / 1e9
	m["engine.tasks"] = float64(ins.bus.Count(telemetry.OpTaskComplete))
	for _, c := range res.Contention {
		m["engine.parks"] += float64(c.Parks)
		m["engine.notes"] += float64(c.Notes)
		m["csp.blocked_scans"] += float64(c.BlockedScans)
	}
	m["engine.idle_share_mean"], m["engine.idle_share_max"] = idleShares(engine.SpansFromEvents(evs), first, last)
	m["csp.admit_delays"] = float64(ins.bus.Count(telemetry.OpSchedDelay))
	if m["engine.tasks"] > 0 {
		m["csp.blocked_scan_ratio"] = m["csp.blocked_scans"] / m["engine.tasks"]
	}
	if res.ObservedTrace != nil {
		m["trace.events"] = float64(len(res.ObservedTrace.Events))
	}
	m["fault.saves"] = float64(ins.bus.Count(telemetry.OpCheckpoint))
	if snaps := ins.rec.times(); len(snaps) > 0 {
		m["fault.snapshot_ms_p50"] = quantile(sorted(snaps), 0.5)
		m["fault.snapshot_ms_p90"] = quantile(sorted(snaps), 0.9)
		for _, s := range snaps {
			m["fault.snapshot_total_ms"] += s
		}
		m["fault.snapshot_share"] = m["fault.snapshot_total_ms"] / res.TotalMs
	}
	m["fault.weight_checksum_ms"] = ins.wts.total()
	if v, ok := percentile(st.lags, 90); ok {
		m["fault.durable_lag_p90"] = v
	}
	var hits, misses float64
	for _, c := range res.CacheStats {
		hits += float64(c.Hits)
		misses += float64(c.Misses)
		m["prefetch.late"] += float64(c.LatePrefetches)
		m["prefetch.dropped"] += float64(c.DroppedPrefetches)
	}
	if hits+misses > 0 {
		m["prefetch.hit_rate"] = hits / (hits + misses)
	}
	m["transport.frames_sent"] = float64(ins.bus.Count(telemetry.OpLinkSend))
	m["transport.frames_recv"] = float64(ins.bus.Count(telemetry.OpLinkRecv))
	m["transport.retransmits"] = float64(ins.bus.Count(telemetry.OpLinkRetransmit))
	return m
}

// idleShares is 1 − busy/extent per stage, where busy is the union of
// the stage's task spans and extent the first-to-last event window.
func idleShares(spans []engine.TaskSpan, firstNs, lastNs int64) (mean, worst float64) {
	byStage := map[int][][2]float64{}
	for _, s := range spans {
		byStage[s.Task.Stage] = append(byStage[s.Task.Stage], [2]float64{s.StartMs, s.EndMs})
	}
	extent := float64(lastNs-firstNs) / 1e6
	if extent <= 0 || len(byStage) == 0 {
		return 0, 0
	}
	for _, iv := range byStage {
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		busy, end := 0.0, iv[0][0]
		for _, x := range iv {
			if x[1] <= end {
				continue
			}
			busy += x[1] - max(x[0], end)
			end = x[1]
		}
		idle := 1 - busy/extent
		mean += idle
		worst = max(worst, idle)
	}
	return mean / float64(len(byStage)), worst
}

// probeLayers times each layer's public functions from outside on the
// workload's own inputs and the last traced run's trace, and checks
// what they return.
func probeLayers(ctx context.Context, w workload, seed uint64, dir string, last runStats) (map[string]metric, error) {
	m := map[string]metric{}
	spec := w.spec(seed, filepath.Join(dir, "probe-ckpt"))
	_, cfg, err := naspipe.FromSpec(spec)
	if err != nil {
		return m, err
	}
	world, err := engine.NewWorld(cfg, engine.PartitionBalanced)
	if err != nil {
		return m, err
	}
	addMs, schedNs, markNs, err := cspReplay(world, admitWindow)
	if err != nil {
		return m, err
	}
	m["csp.add_subnet_ms"] = metric{addMs, "ms"}
	m["csp.schedule_ns"] = metric{schedNs, "ns"}
	m["csp.mark_written_ns"] = metric{markNs, "ns"}

	var canon *trace.Trace
	m["trace.canonical_ms"] = metric{timeMs(func() { canon = engine.CanonicalTrace(world) }), "ms"}
	obs := last.res.ObservedTrace
	var equal bool
	m["trace.per_layer_equal_ms"] = metric{timeMs(func() { equal = obs.PerLayerEqual(canon) }), "ms"}
	if !equal {
		return m, fmt.Errorf("observed trace is not per-layer equal to the canonical order")
	}
	parts := make([]*trace.Trace, world.D)
	for k := range parts {
		parts[k] = engine.FilterTrace(obs, []int{k})
	}
	var merged *trace.Trace
	m["trace.merge_ms"] = metric{timeMs(func() { merged = engine.MergeStageTraces(world.D, 0, parts) }), "ms"}
	if !merged.PerLayerEqual(canon) {
		return m, fmt.Errorf("merged per-stage traces are not per-layer equal to the canonical order")
	}

	tc, ok := spec.TrainConfig()
	if !ok {
		// No numeric plane in this workload: probe the train layer and
		// the checkpoint weight function at the fleet's reference
		// setting, off the workload's blocking path.
		ref := spec
		ref.Train = &naspipe.TrainSpec{Dim: 8}
		tc, _ = ref.TrainConfig()
		var wts timedWeights
		fn := wts.wrap(train.NewCheckpointer(tc, world.Subnets).ChecksumAt)
		for c := 1; c <= len(world.Subnets); c++ {
			fn(c)
		}
		m["fault.weight_checksum_ms"] = metric{wts.total(), "ms"}
	}
	if err := probeTrain(tc, world.Subnets, obs, m); err != nil {
		return m, err
	}
	if w.fleet {
		if err := replayCheckpoints(spec, tc, world.Subnets, m); err != nil {
			return m, err
		}
	}
	return m, probeTransport(ctx, m)
}

// admitWindow is the replay's forward queue length: the engine's
// default in-flight window at depth 4, max(3·D, 12).
const admitWindow = 12

// cspReplay drives fresh per-stage schedulers through the canonical
// order: every stage registers every subnet, then subnet by subnet each
// stage admits from a queue of the next window subnets and applies the
// WRITE notes of every stage, stage 0's last, which finishes the
// subnet. It returns the registration time in ms and the mean ns per
// Schedule and per MarkWritten call.
func cspReplay(world *engine.World, window int) (addMs, schedNs, markNs float64, err error) {
	n := len(world.Subnets)
	scheds := make([]*csp.Scheduler, world.D)
	t := time.Now()
	for k := range scheds {
		scheds[k] = csp.New(k)
		for i := 0; i < n; i++ {
			if err := scheds[k].AddSubnet(csp.SubnetInfo{
				Seq: i, AllLayers: world.AllLayerIDs(i), StageLayers: world.StageLayerIDs(i, k),
			}); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	addMs = since(t)
	var schedDur, markDur time.Duration
	var schedCalls, markCalls int
	queue := make([]int, 0, window)
	for seq := 0; seq < n; seq++ {
		queue = queue[:0]
		for i := seq; i < n && i < seq+window; i++ {
			queue = append(queue, i)
		}
		t := time.Now()
		for _, s := range scheds {
			if _, got := s.Schedule(queue); got != seq {
				return 0, 0, 0, fmt.Errorf("csp replay: stage %d admitted %d, canonical order wants %d", s.Stage(), got, seq)
			}
		}
		schedDur += time.Since(t)
		schedCalls += len(scheds)
		t = time.Now()
		for j := world.D - 1; j >= 0; j-- {
			ids := world.StageLayerIDs(seq, j)
			for _, s := range scheds {
				s.MarkWritten(seq, ids)
			}
		}
		markDur += time.Since(t)
		markCalls += world.D * len(scheds)
		for _, s := range scheds {
			s.MarkFinished(seq)
		}
	}
	return addMs, float64(schedDur) / float64(schedCalls), float64(markDur) / float64(markCalls), nil
}

// probeTrain times the numeric plane's pieces of the bitwise check —
// the sequential reference, a fresh supernet, its checksum, and the
// replay of the observed trace — and checks the replay lands bitwise
// on the reference.
func probeTrain(tc train.Config, subs []supernet.Subnet, obs *trace.Trace, m map[string]metric) error {
	var seq train.Result
	m["train.sequential_ms"] = metric{timeMs(func() { seq = train.Sequential(tc, subs) }), "ms"}
	m["train.step_us"] = metric{m["train.sequential_ms"].Value * 1e3 / float64(len(subs)), "us"}
	m["supernet.checksum_ms"] = metric{timeMs(func() { seq.Net.Checksum() }), "ms"}
	var net *supernet.Numeric
	m["supernet.build_ms"] = metric{timeMs(func() { net = supernet.BuildNumeric(tc.Space, seq.Net.Dim, tc.Seed) }), "ms"}
	var rep train.Result
	var err error
	m["train.replay_ms"] = metric{timeMs(func() { rep, err = train.ReplayOn(tc, net, subs, obs) }), "ms"}
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if rep.Checksum != seq.Checksum {
		return fmt.Errorf("replayed weights %016x differ from the sequential reference %016x", rep.Checksum, seq.Checksum)
	}
	return nil
}

// replayCheckpoints times what the fleet coordinator's recorder pays:
// a file recorder with the training plane's prefix checksums, fed one
// cut per committed subnet. The coordinator builds its recorder
// internally, so the fleet's checkpoint figures come from this replay.
func replayCheckpoints(spec naspipe.JobSpec, tc train.Config, subs []supernet.Subnet, m map[string]metric) error {
	var wts timedWeights
	rec := &timedRecorder{inner: fault.NewFileRecorder(spec.Checkpoint,
		fault.Checkpoint{Space: spec.Space, Seed: spec.Seed, GPUs: spec.GPUs, NumSubnets: len(subs)},
		1, wts.wrap(train.NewCheckpointer(tc, subs).ChecksumAt))}
	if err := rec.inner.Init(); err != nil {
		return err
	}
	for c := 1; c <= len(subs); c++ {
		if err := rec.Snapshot(fault.Cut{Cursor: c}); err != nil {
			return err
		}
	}
	snaps := sorted(rec.times())
	var total float64
	for _, s := range snaps {
		total += s
	}
	m["fault.snapshot_ms_p50"] = metric{quantile(snaps, 0.5), "ms"}
	m["fault.snapshot_ms_p90"] = metric{quantile(snaps, 0.9), "ms"}
	m["fault.snapshot_total_ms"] = metric{total, "ms"}
	m["fault.weight_checksum_ms"] = metric{wts.total(), "ms"}
	return nil
}

// fleetVsInProc runs the fleet's JobSpec in process and reports the
// fleet's median wall time over the in-process median.
func fleetVsInProc(ctx context.Context, w workload, seed uint64, dir string, fleetWall float64, m map[string]metric) error {
	twin := w
	twin.fleet = false
	var walls []float64
	for i := 0; i < minRuns; i++ {
		st, err := runOnce(ctx, twin, seed, dir, nil)
		if err != nil {
			return err
		}
		walls = append(walls, st.wall.Seconds())
	}
	m["distrib.fleet_vs_inproc"] = metric{fleetWall / median(walls), "ratio"}
	return nil
}
