package main

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"naspipe/internal/fault"
)

func saveCursor(t *testing.T, path string, cursor int) {
	t.Helper()
	if err := (fault.Checkpoint{Space: "NLP.c1", NumSubnets: 100, Cursor: cursor}).Save(path); err != nil {
		t.Fatal(err)
	}
}

// TestPollerSetupTime: setup is the first moment a cursor >= 1 is on
// disk — a cursor-0 file (the recorder's Init) does not end set-up.
func TestPollerSetupTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	start := time.Now()
	p := startPoller(path, start, nil, 200*time.Microsecond, time.Millisecond)
	saveCursor(t, path, 0)
	time.Sleep(30 * time.Millisecond)
	wrote := time.Since(start)
	saveCursor(t, path, 1)
	time.Sleep(30 * time.Millisecond)
	setup, seen, lags := p.Stop()
	if !seen {
		t.Fatal("poller never saw cursor 1")
	}
	if setup < wrote || setup > wrote+25*time.Millisecond {
		t.Errorf("setup %v, want just after the cursor-1 save at %v", setup, wrote)
	}
	if len(lags) != 0 {
		t.Errorf("no frontier given, yet %d lag samples", len(lags))
	}
}

func TestPollerNeverSeesCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	p := startPoller(path, time.Now(), nil, 200*time.Microsecond, time.Millisecond)
	saveCursor(t, path, 0)
	time.Sleep(10 * time.Millisecond)
	if _, seen, _ := p.Stop(); seen {
		t.Error("a cursor-0 checkpoint must not count as the first cut")
	}
}

// TestPollerDurableLag: lag is frontier minus the on-disk cursor,
// clamped at 0 when the disk is ahead of the frontier read.
func TestPollerDurableLag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt")
	saveCursor(t, path, 5)
	var frontier atomic.Int64
	frontier.Store(8)
	p := startPoller(path, time.Now(), func() int { return int(frontier.Load()) }, 100*time.Microsecond, 500*time.Microsecond)
	time.Sleep(20 * time.Millisecond)
	frontier.Store(2)
	time.Sleep(20 * time.Millisecond)
	_, seen, lags := p.Stop()
	if !seen || len(lags) < 4 {
		t.Fatalf("seen=%v with %d lag samples", seen, len(lags))
	}
	var three, zero int
	for _, l := range lags {
		switch l {
		case 3:
			three++
		case 0:
			zero++
		default:
			t.Fatalf("lag sample %v: want 3 (8 - 5) or 0 (frontier behind disk)", l)
		}
	}
	if three == 0 || zero == 0 {
		t.Errorf("lag samples %v: want both phases", lags)
	}
}

func TestPollerMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent")
	p := startPoller(path, time.Now(), func() int { return 1 }, 100*time.Microsecond, time.Millisecond)
	time.Sleep(5 * time.Millisecond)
	if _, seen, lags := p.Stop(); seen || len(lags) != 0 {
		t.Errorf("no file: seen=%v lags=%v", seen, lags)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("the poller must only read")
	}
}

var sink []byte

// TestUsageDeltas: CPU burnt and bytes allocated between two readings
// show up in the delta, and peak RSS is reported.
func TestUsageDeltas(t *testing.T) {
	before := readUsage()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	for i := 0; i < 64; i++ {
		sink = make([]byte, 1<<20)
	}
	after := readUsage()
	cpu, alloc := after.delta(before)
	if cpu < 20*time.Millisecond {
		t.Errorf("cpu delta %v after a 50ms spin (x=%d)", cpu, x)
	}
	if alloc < 64<<20 {
		t.Errorf("alloc delta %d, want >= 64 MiB", alloc)
	}
	if after.maxRSSKB <= 0 {
		t.Errorf("peak RSS %d KB", after.maxRSSKB)
	}
}
