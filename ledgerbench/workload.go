package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"naspipe"
	"naspipe/internal/distrib"
	"naspipe/internal/engine"
	"naspipe/internal/fault"
	"naspipe/internal/telemetry"
	"naspipe/internal/train"
)

// workload is one fixed job shape; the seed picks its subnet stream.
// All run NLP.c1 at pipeline depth 4 on the concurrent executor
// and checkpoint every cursor advance to the ordinary filesystem,
// because a durable commit is part of what a user pays per subnet.
type workload struct {
	name    string
	subnets int
	fleet   bool // run as a coordinator + 4 in-process TCP stage workers
	spec    func(seed uint64, ckpt string) naspipe.JobSpec
}

var workloads = []workload{
	{
		// CSP admission, trace verification, checkpoint I/O and prefetch
		// do all the work; the tensor and train layers do none.
		name: "csp-ckpt", subnets: 768,
		spec: func(seed uint64, ckpt string) naspipe.JobSpec {
			factor, on := 3.0, true
			return naspipe.JobSpec{
				Space: "NLP.c1", Executor: "concurrent", GPUs: 4, Subnets: 768, Seed: seed,
				CacheFactor: &factor, Predictor: true, Trace: &on, Checkpoint: ckpt,
			}
		},
	},
	{
		// Numeric training, weight checksums in every checkpoint and the
		// bitwise replay against the sequential reference dominate. Run
		// by name for its ledger; BENCHMARK.json does not list it, so
		// the full run budget goes to the two workloads it gates.
		name: "numeric-verify", subnets: 128,
		spec: func(seed uint64, ckpt string) naspipe.JobSpec {
			return naspipe.JobSpec{
				Space: "NLP.c1", Executor: "concurrent", GPUs: 4, Subnets: 128, Seed: seed,
				Train: &naspipe.TrainSpec{Dim: 32, BatchSize: 2}, Verify: true, Checkpoint: ckpt,
			}
		},
	},
	{
		// The only workload through transport Links, the coordinator
		// relay and the fleet trace merge.
		name: "fleet-tcp", subnets: 384, fleet: true,
		spec: func(seed uint64, ckpt string) naspipe.JobSpec {
			return naspipe.JobSpec{
				Space: "NLP.c1", Executor: "concurrent", GPUs: 4, Subnets: 384, Seed: seed,
				Train: &naspipe.TrainSpec{Dim: 8}, Verify: true, Checkpoint: ckpt,
			}
		},
	},
}

// streams is how many subnet streams one end-to-end invocation cycles
// through: a median over several streams moves less from one --seed to
// the next than a median over one stream's repeats.
const streams = 4

// streamSeed is the JobSpec seed of the i-th stream of a workload seed.
func streamSeed(seed uint64, i int) uint64 { return seed*streams + uint64(i%streams) }

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// runStats is what one end-to-end run yields.
type runStats struct {
	wall       time.Duration
	setup      time.Duration
	cpu        time.Duration
	alloc      uint64
	lags       []float64
	res        naspipe.Result
	restarts   int
	weightsSum uint64 // verified final checksum (numeric workloads)
}

// instrument carries the traced run's hooks; nil for an untraced run.
type instrument struct {
	bus     *telemetry.Bus
	rec     timedRecorder
	wts     timedWeights
	startNs int64 // bus clock at the run call
}

// runOnce executes one verified run of w in dir and checks its outputs.
// Any error, from the run or from a check, makes the run a failure.
func runOnce(ctx context.Context, w workload, seed uint64, dir string, ins *instrument) (runStats, error) {
	path := filepath.Join(dir, "ckpt")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return runStats{}, fmt.Errorf("clearing checkpoint: %w", err)
	}
	spec := w.spec(seed, path)
	var st runStats
	var err error
	probe := &engine.RunProbe{}
	frontier := func() int { f, _ := probe.Progress(); return f }
	if w.fleet {
		frontier = nil // the coordinator's probe is internal to its supervisor
	}
	// Start every run from a collected heap returned to the OS, so one
	// run's garbage is not collected on the next run's clock and peak
	// RSS is the largest single run, not an accumulation.
	debug.FreeOSMemory()
	before := readUsage()
	start := time.Now()
	if ins != nil {
		ins.startNs = ins.bus.Now()
	}
	poll := startPoller(path, start, frontier, setupPoll, lagPoll)
	switch {
	case w.fleet:
		st, err = runFleet(ctx, spec, seed, ins)
	case ins != nil:
		st, err = runInProcTraced(ctx, spec, probe, ins)
	default:
		st, err = runInProc(ctx, spec, probe)
	}
	st.wall = time.Since(start)
	setup, seen, lags := poll.Stop()
	after := readUsage()
	st.cpu, st.alloc = after.delta(before)
	st.setup, st.lags = setup, lags
	if err != nil {
		return st, err
	}
	if !seen {
		return st, fmt.Errorf("no checkpoint with cursor >= 1 appeared on disk during the run")
	}
	return st, checkOutputs(w, spec, st)
}

// runInProc is the public single-process path: JobSpec → FromSpec →
// NewRunner → Run, then the bitwise replay where the spec asks for it.
func runInProc(ctx context.Context, spec naspipe.JobSpec, probe *engine.RunProbe) (runStats, error) {
	opts, cfg, err := naspipe.FromSpec(spec)
	if err != nil {
		return runStats{}, err
	}
	r, err := naspipe.NewRunner(opts...)
	if err != nil {
		return runStats{}, err
	}
	cfg.Probe = probe
	res, err := r.Run(ctx, cfg)
	st := runStats{res: res}
	if err != nil {
		return st, fmt.Errorf("run: %w", err)
	}
	if spec.Verify {
		tc, _ := spec.TrainConfig()
		if st.weightsSum, err = naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
			return st, err
		}
	}
	return st, nil
}

// runInProcTraced is runInProc with the checkpoint recorder and weight
// function wrapped for timing and a telemetry bus attached. Runner.Run
// builds its recorder internally, so this wires the same pieces — a
// fault.NewFileRecorder fed by the engine's cuts, with the training
// plane's prefix checksums — around engine.RunConcurrent directly.
func runInProcTraced(ctx context.Context, spec naspipe.JobSpec, probe *engine.RunProbe, ins *instrument) (runStats, error) {
	_, cfg, err := naspipe.FromSpec(spec)
	if err != nil {
		return runStats{}, err
	}
	if spec.CacheFactor != nil {
		cfg.ConcurrentMem = engine.MemPlaneConfig{CacheFactor: *spec.CacheFactor, Predictor: spec.Predictor}
	}
	cfg.Telemetry = ins.bus
	cfg.Probe = probe
	full := cfg.ResolveSubnets()
	var weightFn func(int) uint64
	tc, numeric := spec.TrainConfig()
	if numeric {
		weightFn = ins.wts.wrap(train.NewCheckpointer(tc, full).ChecksumAt)
	}
	ins.rec.inner = fault.NewFileRecorder(spec.Checkpoint, fault.Checkpoint{
		Space: cfg.Space.Name, Seed: cfg.Seed, GPUs: cfg.Spec.GPUs, NumSubnets: len(full),
	}, spec.CheckpointEvery, weightFn)
	if err := ins.rec.inner.Init(); err != nil {
		return runStats{}, fmt.Errorf("checkpoint init: %w", err)
	}
	cfg.Checkpoint = &ins.rec
	res, err := engine.RunConcurrent(ctx, cfg)
	st := runStats{res: res}
	if err != nil {
		return st, fmt.Errorf("run: %w", err)
	}
	if spec.Verify {
		if st.weightsSum, err = naspipe.VerifyAgainstSequential(tc, cfg, res); err != nil {
			return st, err
		}
	}
	return st, nil
}

// runFleet runs the job as a coordinator with four in-process stage
// workers over loopback TCP Links. With spec.Verify the coordinator
// replays the merged fleet trace against the sequential reference
// before Run returns.
func runFleet(ctx context.Context, spec naspipe.JobSpec, seed uint64, ins *instrument) (runStats, error) {
	var bus *telemetry.Bus
	if ins != nil {
		bus = ins.bus
	}
	co, err := distrib.NewCoordinator(distrib.CoordConfig{
		Spec: spec, RunID: fmt.Sprintf("ledger-%d-%d", seed, time.Now().UnixNano()),
		Launcher: &distrib.InProcLauncher{Tel: bus}, Tel: bus,
	})
	if err != nil {
		return runStats{}, err
	}
	res, rep, err := co.Run(ctx)
	st := runStats{res: res}
	if rep != nil {
		st.restarts = rep.Restarts
	}
	if err != nil {
		return st, fmt.Errorf("fleet run: %w", err)
	}
	return st, nil
}

// checkOutputs verifies a finished run from outside: every subnet
// completed, the final checkpoint loads with cursor == N under the
// run's identity, and on numeric workloads the checkpoint's sequential
// prefix checksum equals the weights the bitwise replay produced.
func checkOutputs(w workload, spec naspipe.JobSpec, st runStats) error {
	if st.res.Completed != w.subnets {
		return fmt.Errorf("completed %d of %d subnets", st.res.Completed, w.subnets)
	}
	if st.restarts != 0 {
		return fmt.Errorf("fault-free run restarted %d times", st.restarts)
	}
	ck, err := fault.Load(spec.Checkpoint)
	if err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	switch {
	case ck.Cursor != w.subnets:
		return fmt.Errorf("final checkpoint cursor %d, want %d", ck.Cursor, w.subnets)
	case ck.Space != spec.Space || ck.Seed != spec.Seed || ck.GPUs != spec.GPUs ||
		ck.NumSubnets != spec.Subnets || ck.Incarnation != 0:
		return fmt.Errorf("final checkpoint identity %s/seed %d/%d GPUs/%d subnets/inc %d does not match the job",
			ck.Space, ck.Seed, ck.GPUs, ck.NumSubnets, ck.Incarnation)
	}
	if spec.Train != nil && ck.WeightChecksum == 0 {
		return fmt.Errorf("final checkpoint carries no weight checksum")
	}
	if st.weightsSum != 0 && ck.WeightChecksum != st.weightsSum {
		return fmt.Errorf("checkpoint weights %016x differ from verified weights %016x", ck.WeightChecksum, st.weightsSum)
	}
	return nil
}
