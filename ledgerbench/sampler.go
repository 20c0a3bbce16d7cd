package main

import (
	"runtime"
	"syscall"
	"time"

	"naspipe/internal/fault"
)

// Poll rates of the on-disk cursor poller. The fast rate resolves
// setup_s (the first durable cut lands within milliseconds of the run
// call); the slow rate samples durable lag for the rest of the run,
// low enough that the poller's own reads stay a negligible share of
// the CPU the pipeline competes for.
const (
	setupPoll = 500 * time.Microsecond
	lagPoll   = 5 * time.Millisecond
)

// cursorPoller watches a checkpoint file from outside the program. It
// records when a checkpoint with cursor ≥ 1 first appears (setup time,
// measured from start) and, once it has, samples durable lag: the
// pipeline's committed frontier minus the on-disk cursor.
type cursorPoller struct {
	path     string
	start    time.Time
	frontier func() int // nil: no lag sampling (the fleet exposes no frontier)
	fast     time.Duration
	slow     time.Duration

	stop chan struct{}
	done chan struct{}

	// Written by the polling goroutine; read after done is closed.
	setup time.Duration
	seen  bool
	lags  []float64
}

// startPoller begins polling path. frontier may be nil.
func startPoller(path string, start time.Time, frontier func() int, fast, slow time.Duration) *cursorPoller {
	p := &cursorPoller{
		path: path, start: start, frontier: frontier, fast: fast, slow: slow,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go p.loop()
	return p
}

// diskCursor reads the committed cursor on disk; -1 when the file is
// absent or unreadable (before Init, or between runs).
func (p *cursorPoller) diskCursor() int {
	ck, err := fault.Load(p.path)
	if err != nil {
		return -1
	}
	return ck.Cursor
}

func (p *cursorPoller) loop() {
	defer close(p.done)
	t := time.NewTimer(0)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		if !p.seen {
			if p.diskCursor() >= 1 {
				p.setup, p.seen = time.Since(p.start), true
			}
			t.Reset(p.fast)
			continue
		}
		if p.frontier != nil {
			// Frontier first: the disk can only move forward while we
			// read it, so this order never overstates the lag.
			f := p.frontier()
			lag := f - p.diskCursor()
			if lag < 0 {
				lag = 0
			}
			p.lags = append(p.lags, float64(lag))
		}
		t.Reset(p.slow)
	}
}

// Stop ends polling, waits for the goroutine, and returns the setup
// time (seen is false when no cut reached the disk) and lag samples.
func (p *cursorPoller) Stop() (setup time.Duration, seen bool, lags []float64) {
	close(p.stop)
	<-p.done
	return p.setup, p.seen, p.lags
}

// usage is a process resource reading: CPU time (user+sys), cumulative
// Go heap bytes allocated, and peak resident set size.
type usage struct {
	cpu      time.Duration
	alloc    uint64
	maxRSSKB int64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		maxRSSKB: ru.Maxrss, // kilobytes on Linux
	}
}

// delta is the CPU time and heap allocation between two readings.
func (u usage) delta(before usage) (cpu time.Duration, alloc uint64) {
	return u.cpu - before.cpu, u.alloc - before.alloc
}
