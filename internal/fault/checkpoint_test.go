package fault

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleCheckpoint() Checkpoint {
	return Checkpoint{
		Space: "NLP.c3[8x3]", Seed: 42, GPUs: 4, NumSubnets: 48,
		Cursor: 17, Incarnation: 2, WeightChecksum: 0xdeadbeefcafe1234,
		FaultSeed: 7, JitterSeed: 11, Finished: []int{19, 21},
	}
}

func TestCheckpointEncodeDecodeRoundTrip(t *testing.T) {
	c := sampleCheckpoint()
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
	// Empty Finished must round-trip to nil, not a zero-length slice.
	c.Finished = nil
	got, err = Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Finished != nil {
		t.Fatalf("empty finished decoded as %v", got.Finished)
	}
}

func TestCheckpointDecodeRejectsCorruption(t *testing.T) {
	buf := sampleCheckpoint().Encode()
	cases := map[string][]byte{
		"empty":       {},
		"short":       buf[:8],
		"bad magic":   append([]byte("XXXX"), buf[4:]...),
		"bad version": append(append([]byte{}, buf[:4]...), append([]byte{99}, buf[5:]...)...),
		"truncated":   buf[:len(buf)-3],
	}
	flipped := append([]byte(nil), buf...)
	flipped[10] ^= 0xff
	cases["bit flip"] = flipped
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: Decode accepted corrupt input", name)
		}
	}
}

func TestCheckpointSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.bin")
	c := sampleCheckpoint()
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("Load mismatch: %+v vs %+v", got, c)
	}
	// Overwrite with a later state; no temp files may linger.
	c.Cursor = 30
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ck.bin" {
		t.Fatalf("directory not clean after save: %v", entries)
	}
	got, _ = Load(path)
	if got.Cursor != 30 {
		t.Fatalf("overwrite lost: cursor %d", got.Cursor)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.bin")); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}

func TestFileRecorderThrottleAndFinalCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	ident := Checkpoint{Space: "s", Seed: 1, GPUs: 2, NumSubnets: 10}
	r := NewFileRecorder(path, ident, 4, nil)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	for cur := 1; cur <= 10; cur++ {
		if err := r.Snapshot(Cut{Cursor: cur}); err != nil {
			t.Fatal(err)
		}
	}
	// Init + cursors 4, 8 + the always-saved final cut (10).
	if got := r.Saves(); got != 4 {
		t.Fatalf("saves = %d, want 4 (init + 4 + 8 + final)", got)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cursor != 10 {
		t.Fatalf("final cursor %d, want 10", got.Cursor)
	}
}

// TestFileRecorderThrottleByDistance pins the throttle to progress,
// not multiples: the stage-0 frontier jumps when an out-of-order finish
// fills a gap, and the engine merges cuts, so a cursor can step over
// every multiple of the interval. A save is due once the cursor is at
// least `every` past the last saved one.
func TestFileRecorderThrottleByDistance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	r := NewFileRecorder(path, Checkpoint{Space: "s", NumSubnets: 10}, 4, nil)
	if err := r.Init(); err != nil {
		t.Fatal(err)
	}
	var savedAt []int
	for _, cur := range []int{3, 5, 9, 10} {
		before := r.Saves()
		if err := r.Snapshot(Cut{Cursor: cur}); err != nil {
			t.Fatal(err)
		}
		if r.Saves() > before {
			savedAt = append(savedAt, cur)
		}
	}
	if !reflect.DeepEqual(savedAt, []int{5, 9, 10}) {
		t.Fatalf("saved at cursors %v, want [5 9 10]", savedAt)
	}
}

func TestFileRecorderIgnoresStaleCuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	r := NewFileRecorder(path, Checkpoint{NumSubnets: 10, Cursor: 5}, 1, nil)
	if err := r.Snapshot(Cut{Cursor: 3}); err != nil {
		t.Fatal(err)
	}
	if got := r.Last().Cursor; got != 5 {
		t.Fatalf("stale cut regressed cursor to %d", got)
	}
}

func TestFileRecorderBumpAndWeightFn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.bin")
	weightFn := func(cursor int) uint64 { return uint64(1000 + cursor) }
	r := NewFileRecorder(path, Checkpoint{Space: "s", NumSubnets: 10}, 1, weightFn)
	if err := r.Snapshot(Cut{Cursor: 7, Finished: []int{9, 8}}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.WeightChecksum != 1007 {
		t.Fatalf("weight checksum %d, want 1007", got.WeightChecksum)
	}
	if !reflect.DeepEqual(got.Finished, []int{8, 9}) {
		t.Fatalf("finished not sorted: %v", got.Finished)
	}
	if err := r.Bump(); err != nil {
		t.Fatal(err)
	}
	got, _ = Load(path)
	if got.Incarnation != 1 || got.Cursor != 7 {
		t.Fatalf("bump state wrong: %+v", got)
	}
}
