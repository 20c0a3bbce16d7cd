package engine_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"naspipe/internal/engine"
	"naspipe/internal/fault"
)

// checkedRecorder wraps the file recorder and pins the committer's side
// of the Recorder contract: one Snapshot at a time, cursors strictly
// increasing. onCut, when set, runs after every handed-over cut.
type checkedRecorder struct {
	t     *testing.T
	inner *fault.FileRecorder
	onCut func(fault.Cut)
	busy  atomic.Bool
	last  atomic.Int64
}

func (r *checkedRecorder) Snapshot(c fault.Cut) error {
	if !r.busy.CompareAndSwap(false, true) {
		r.t.Errorf("concurrent Snapshot calls (cut %d)", c.Cursor)
	}
	defer r.busy.Store(false)
	if prev := r.last.Swap(int64(c.Cursor)); int64(c.Cursor) <= prev && c.Cursor != 0 {
		r.t.Errorf("cut %d handed over after cut %d", c.Cursor, prev)
	}
	err := r.inner.Snapshot(c)
	if r.onCut != nil {
		r.onCut(c)
	}
	return err
}

// TestCommitterDrainsOnEveryExit: whichever way RunConcurrent returns,
// the last cut stage 0 offered is on disk by then — the checkpoint file's
// cursor equals the committed frontier the run probe saw.
func TestCommitterDrainsOnEveryExit(t *testing.T) {
	cases := []struct {
		name string
		// setup adjusts the run; cancel ends it early where the case
		// needs that. check judges the run's error.
		setup func(cfg *engine.Config, rec *checkedRecorder, probe *engine.RunProbe, cancel context.CancelFunc)
		check func(res engine.Result, err error) error
	}{
		{
			name:  "success",
			setup: func(*engine.Config, *checkedRecorder, *engine.RunProbe, context.CancelFunc) {},
			check: func(res engine.Result, err error) error {
				if err != nil || res.Deadlock {
					return errors.Join(errors.New("want a clean finish"), err)
				}
				return nil
			},
		},
		{
			name: "crash",
			setup: func(cfg *engine.Config, _ *checkedRecorder, _ *engine.RunProbe, _ context.CancelFunc) {
				cfg.Faults = &fault.Plan{Seed: 1, CrashTask: &fault.TaskRef{Stage: 2, Seq: 9, Kind: fault.KindForward}}
			},
			check: func(_ engine.Result, err error) error {
				var ce *fault.CrashError
				if !errors.As(err, &ce) {
					return errors.Join(errors.New("want a CrashError"), err)
				}
				return nil
			},
		},
		{
			name: "cancel",
			setup: func(_ *engine.Config, rec *checkedRecorder, _ *engine.RunProbe, cancel context.CancelFunc) {
				rec.onCut = func(c fault.Cut) {
					if c.Cursor >= 4 {
						cancel()
					}
				}
			},
			check: func(_ engine.Result, err error) error {
				if !errors.Is(err, context.Canceled) {
					return errors.Join(errors.New("want context.Canceled"), err)
				}
				return nil
			},
		},
		{
			// A wedged stage holds the run until the watchdog — here the
			// test — cancels it: the stalled-run exit, Deadlock set.
			name: "deadlock",
			setup: func(cfg *engine.Config, _ *checkedRecorder, probe *engine.RunProbe, cancel context.CancelFunc) {
				cfg.Faults = &fault.Plan{Seed: 3, WedgeTask: &fault.TaskRef{Stage: 1, Seq: 6, Kind: fault.KindForward}}
				go func() {
					// Cancel once cuts are flowing (or after a bound, so
					// a slow start cannot hang the test).
					deadline := time.Now().Add(2 * time.Second)
					for f, _ := probe.Progress(); f < 1 && time.Now().Before(deadline); f, _ = probe.Progress() {
						time.Sleep(time.Millisecond)
					}
					time.Sleep(20 * time.Millisecond)
					cancel()
				}()
			},
			check: func(res engine.Result, err error) error {
				if !errors.Is(err, context.Canceled) || !res.Deadlock {
					return errors.Join(errors.New("want a cancelled, deadlocked run"), err)
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ccCfg(4, true)
			path := filepath.Join(t.TempDir(), "ck.bin")
			inner := fault.NewFileRecorder(path, fault.Checkpoint{
				Space: cfg.Space.Name, Seed: cfg.Seed, GPUs: 4, NumSubnets: cfg.NumSubnets,
			}, 1, nil)
			if err := inner.Init(); err != nil {
				t.Fatal(err)
			}
			rec := &checkedRecorder{t: t, inner: inner}
			rec.last.Store(-1)
			probe := &engine.RunProbe{}
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			tc.setup(&cfg, rec, probe, cancel)
			cfg.Checkpoint, cfg.Probe = rec, probe
			res, err := engine.RunConcurrent(ctx, cfg)
			if cerr := tc.check(res, err); cerr != nil {
				t.Fatal(cerr)
			}
			ck, lerr := fault.Load(path)
			if lerr != nil {
				t.Fatal(lerr)
			}
			frontier, _ := probe.Progress()
			if ck.Cursor != frontier {
				t.Fatalf("on-disk cursor %d at return, committed frontier %d", ck.Cursor, frontier)
			}
			if tc.name == "success" && ck.Cursor != cfg.NumSubnets {
				t.Fatalf("final on-disk cursor %d, want %d", ck.Cursor, cfg.NumSubnets)
			}
		})
	}
}

// TestCommitterSaveErrorFailsRun: a Snapshot that fails on the committer
// goroutine still fails the run, with an error that names the checkpoint
// path.
func TestCommitterSaveErrorFailsRun(t *testing.T) {
	cfg := ccCfg(4, false)
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ck.bin")
	rec := fault.NewFileRecorder(path, fault.Checkpoint{NumSubnets: cfg.NumSubnets}, 1, nil)
	if err := rec.Init(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = rec
	_, err := engine.RunConcurrent(context.Background(), cfg)
	if err == nil {
		t.Fatal("a failing checkpoint save did not fail the run")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "engine: checkpoint recorder: ") || !strings.Contains(msg, path) {
		t.Fatalf("error %q does not attribute the failure to the checkpoint at %s", msg, path)
	}
}
