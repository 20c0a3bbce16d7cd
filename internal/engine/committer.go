package engine

import (
	"sync"

	"naspipe/internal/fault"
)

// committer takes checkpoint commits off the stage-0 goroutine. Stage 0
// offers each consistency cut and goes back to work; one goroutine per
// run hands the cuts to the Recorder, one Snapshot at a time. Cuts only
// move forward, so a cut still waiting when a newer one arrives is
// dropped: the newer cut covers it, and the on-disk state stays a
// crash-consistent prefix, just a little behind the frontier.
type committer struct {
	rec   fault.Recorder
	saved func(fault.Cut) // after each successful Snapshot
	fail  func()          // once, on the first Snapshot error

	mu      sync.Mutex
	pending fault.Cut
	has     bool // pending holds a cut not yet handed over
	closing bool
	err     error // first Snapshot error; read after done closes

	wake chan struct{}
	done chan struct{}
}

func startCommitter(rec fault.Recorder, saved func(fault.Cut), fail func()) *committer {
	cm := &committer{
		rec: rec, saved: saved, fail: fail,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go cm.loop()
	return cm
}

// offer replaces any cut still waiting with cut. It never blocks.
func (cm *committer) offer(cut fault.Cut) {
	cm.mu.Lock()
	cm.pending, cm.has = cut, true
	cm.mu.Unlock()
	cm.poke()
}

func (cm *committer) poke() {
	select {
	case cm.wake <- struct{}{}:
	default:
	}
}

func (cm *committer) loop() {
	defer close(cm.done)
	for {
		cm.mu.Lock()
		cut, has, closing := cm.pending, cm.has, cm.closing
		cm.has = false
		cm.mu.Unlock()
		switch {
		case has:
			if err := cm.rec.Snapshot(cut); err != nil {
				// The run fails; later cuts have nowhere to go.
				cm.err = err
				cm.fail()
				return
			}
			cm.saved(cut)
		case closing:
			return
		default:
			<-cm.wake
		}
	}
}

// drain waits until the last offered cut has reached the recorder, stops
// the goroutine, and returns the first Snapshot error. Call it once, after
// the last offer.
func (cm *committer) drain() error {
	cm.mu.Lock()
	cm.closing = true
	cm.mu.Unlock()
	cm.poke()
	<-cm.done
	return cm.err
}
