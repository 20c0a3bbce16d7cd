package train

import (
	"testing"

	"naspipe/internal/data"
	"naspipe/internal/supernet"
)

// FuzzCheckpointerChecksumAt drives one Checkpointer through a fuzzed
// cursor sequence — forward jumps, repeats, regressions to 0 and to
// mid-stream, cursors past the end — and pins every incremental
// ChecksumAt to its twin, a full Numeric.Checksum over the same net, and
// to an independent Sequential run over the same prefix.
//
// Each input byte is one call: the top two bits pick the move and the
// low six bits its size.
func FuzzCheckpointerChecksumAt(f *testing.F) {
	sp := supernet.NLPc3.Scaled(6, 4)
	cfg := Config{Space: sp, Dim: 4, Seed: 5, BatchSize: 2, LR: 0.05, Dataset: data.WNMT}
	subs := supernet.Sample(sp, 3, 20)
	// want[i] is the sequential reference after subs[:i].
	want := make([]uint64, len(subs)+1)
	for i := range want {
		want[i] = Sequential(cfg, subs[:i]).Checksum
	}
	f.Add([]byte{0x01, 0x01, 0x03, 0x05})             // forward jumps
	f.Add([]byte{0x02, 0x40, 0x40, 0x02})             // repeats
	f.Add([]byte{0x05, 0x80, 0x03, 0xc2, 0x04})       // regress to 0, regress mid-stream
	f.Add([]byte{0x3f, 0x01, 0xc0, 0x3f})             // past the end, then clamp and regress
	f.Add([]byte{0x00, 0x00, 0x01, 0x80, 0x80, 0x01}) // zero-length moves
	f.Fuzz(func(t *testing.T, moves []byte) {
		if len(moves) > 64 {
			moves = moves[:64]
		}
		c := NewCheckpointer(cfg, subs)
		cur := 0
		for i, m := range moves {
			n := int(m & 0x3f)
			switch m >> 6 {
			case 0: // forward jump
				cur += n
			case 1: // repeat
			case 2: // regress to 0
				cur = 0
			case 3: // regress to mid-stream
				if cur > 0 {
					cur = n % cur
				}
			}
			got := c.ChecksumAt(cur)
			full := c.net.Checksum()
			if got != full {
				t.Fatalf("move %d (cursor %d): incremental %016x, full recompute %016x", i, cur, got, full)
			}
			ref := want[min(cur, len(subs))]
			if got != ref {
				t.Fatalf("move %d (cursor %d): checksum %016x, sequential reference %016x", i, cur, got, ref)
			}
		}
	})
}
