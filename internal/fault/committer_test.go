package fault

import (
	"errors"
	"sync"
	"testing"
)

// gateRecorder records every cut it is handed. When gate is non-nil,
// each Snapshot first reports the cut on entered and then waits on gate,
// so a test can hold the committer inside a save while it offers more.
type gateRecorder struct {
	t       *testing.T
	entered chan int
	gate    chan struct{}
	failAt  int // Snapshot of this cursor fails (0 = never)

	mu   sync.Mutex
	busy bool
	got  []int
}

func (r *gateRecorder) Snapshot(c Cut) error {
	r.mu.Lock()
	if r.busy {
		r.t.Errorf("concurrent Snapshot calls (cut %d)", c.Cursor)
	}
	r.busy = true
	r.got = append(r.got, c.Cursor)
	r.mu.Unlock()
	if r.gate != nil {
		r.entered <- c.Cursor
		<-r.gate
	}
	r.mu.Lock()
	r.busy = false
	r.mu.Unlock()
	if c.Cursor == r.failAt {
		return errors.New("disk full")
	}
	return nil
}

func (r *gateRecorder) cursors() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.got...)
}

// TestCommitterKeepsLatestCut: cuts offered while a save is in flight
// collapse into the newest one, which is handed over next.
func TestCommitterKeepsLatestCut(t *testing.T) {
	rec := &gateRecorder{t: t, entered: make(chan int, 1), gate: make(chan struct{})}
	var saved []int
	cm := StartCommitter(rec, func(c Cut) { saved = append(saved, c.Cursor) }, func(err error) {
		t.Errorf("unexpected failure: %v", err)
	})
	cm.Offer(Cut{Cursor: 1})
	if got := <-rec.entered; got != 1 {
		t.Fatalf("first save took cut %d, want 1", got)
	}
	for cur := 2; cur <= 5; cur++ {
		cm.Offer(Cut{Cursor: cur})
	}
	rec.gate <- struct{}{} // finish cut 1
	if got := <-rec.entered; got != 5 {
		t.Fatalf("second save took cut %d, want the newest, 5", got)
	}
	rec.gate <- struct{}{}
	if err := cm.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := rec.cursors(); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("recorder saw cuts %v, want [1 5]", got)
	}
	if len(saved) != 2 || saved[1] != 5 {
		t.Fatalf("saved callback saw %v, want [1 5]", saved)
	}
}

// TestCommitterDrainHandsOverLastCut: whatever the committer skipped,
// the last offered cut is with the recorder when Drain returns.
func TestCommitterDrainHandsOverLastCut(t *testing.T) {
	for round := 0; round < 50; round++ {
		rec := &gateRecorder{t: t}
		cm := StartCommitter(rec, nil, func(err error) { t.Errorf("unexpected failure: %v", err) })
		for cur := 1; cur <= 100; cur++ {
			cm.Offer(Cut{Cursor: cur})
		}
		if err := cm.Drain(); err != nil {
			t.Fatal(err)
		}
		got := rec.cursors()
		if len(got) == 0 || got[len(got)-1] != 100 {
			t.Fatalf("round %d: recorder saw %v, want it to end at 100", round, got)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("round %d: cuts out of order: %v", round, got)
			}
		}
	}
}

// TestCommitterSaveErrorStops: the first failed Snapshot calls fail once
// and stops the committer; Drain (also a second time) returns that
// error, and later cuts never reach the recorder.
func TestCommitterSaveErrorStops(t *testing.T) {
	rec := &gateRecorder{t: t, entered: make(chan int, 1), gate: make(chan struct{}), failAt: 2}
	fails := 0
	var failErr error
	cm := StartCommitter(rec, nil, func(err error) { fails++; failErr = err })
	cm.Offer(Cut{Cursor: 2})
	<-rec.entered
	rec.gate <- struct{}{}
	cm.Offer(Cut{Cursor: 3})
	err := cm.Drain()
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("Drain returned %v, want the save error", err)
	}
	if again := cm.Drain(); again != err {
		t.Fatalf("second Drain returned %v, want %v", again, err)
	}
	if fails != 1 || failErr != err {
		t.Fatalf("fail called %d times with %v, want once with %v", fails, failErr, err)
	}
	if got := rec.cursors(); len(got) != 1 {
		t.Fatalf("recorder saw %v after the failure, want only [2]", got)
	}
}

// TestCommitterDrainWithoutCuts: a run that never offered a cut drains
// at once, without touching the recorder.
func TestCommitterDrainWithoutCuts(t *testing.T) {
	rec := &gateRecorder{t: t}
	cm := StartCommitter(rec, nil, func(error) {})
	if err := cm.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := rec.cursors(); len(got) != 0 {
		t.Fatalf("recorder saw %v, want nothing", got)
	}
}
