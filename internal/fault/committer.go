package fault

import "sync"

// Committer takes checkpoint commits off the goroutine that produces
// the cuts. The producer offers each consistency cut and goes back to
// work; one goroutine hands the cuts to the Recorder, one Snapshot at a
// time. Cuts only move forward, so a cut still waiting when a newer one
// arrives is dropped: the newer cut covers it, and the recorded state
// stays a crash-consistent prefix, just a little behind the frontier.
//
// The in-process executor commits stage 0's cuts through one, and the
// distributed coordinator commits the cuts its stage-0 worker streams
// to it through another.
type Committer struct {
	rec   Recorder
	saved func(Cut)   // after each successful Snapshot; nil = nothing to do
	fail  func(error) // once, on the first Snapshot error

	mu      sync.Mutex
	pending Cut
	has     bool // pending holds a cut not yet handed over
	closing bool
	err     error // first Snapshot error; read after done closes

	wake chan struct{}
	done chan struct{}
}

// StartCommitter starts the commit goroutine for rec. saved, when
// non-nil, runs after every successful Snapshot; fail runs once, on the
// first Snapshot error, after which the committer stops taking cuts.
func StartCommitter(rec Recorder, saved func(Cut), fail func(error)) *Committer {
	cm := &Committer{
		rec: rec, saved: saved, fail: fail,
		wake: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	go cm.loop()
	return cm
}

// Offer replaces any cut still waiting with cut. It never blocks.
func (cm *Committer) Offer(cut Cut) {
	cm.mu.Lock()
	cm.pending, cm.has = cut, true
	cm.mu.Unlock()
	cm.poke()
}

func (cm *Committer) poke() {
	select {
	case cm.wake <- struct{}{}:
	default:
	}
}

func (cm *Committer) loop() {
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
				cm.fail(err)
				return
			}
			if cm.saved != nil {
				cm.saved(cut)
			}
		case closing:
			return
		default:
			<-cm.wake
		}
	}
}

// Drain waits until the last offered cut has reached the recorder, stops
// the goroutine, and returns the first Snapshot error. Call it after the
// last Offer; calling it again returns the same error at once.
func (cm *Committer) Drain() error {
	cm.mu.Lock()
	cm.closing = true
	cm.mu.Unlock()
	cm.poke()
	<-cm.done
	return cm.err
}
