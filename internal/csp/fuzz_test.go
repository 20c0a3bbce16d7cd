package csp

import (
	"math/bits"
	"testing"

	"naspipe/internal/supernet"
)

// fuzzWorkload decodes a fuzz input into a single-stage admission
// workload: up to 12 subnets, each selecting a non-empty subset of a
// 6-layer universe (the low six bits of one byte per subnet). Bit 6 of
// that byte narrows the subnet's stage layers to a strict subset of its
// layers, as when a balanced partition puts the rest on other stages;
// bit 7 makes its retirement partial — one MarkWritten per layer, spread
// over several steps, before MarkFinished. The high nibble of the first
// byte rotates the registration order. Remaining bytes drive the retire
// policy. The tiny universe forces dense layer collisions — the regime
// where admission bugs live.
func fuzzWorkload(data []byte) (w fuzzSubnets, policy []byte) {
	if len(data) == 0 {
		return w, nil
	}
	n := int(data[0])%12 + 1
	w.rotate = int(data[0]>>4) % n
	data = data[1:]
	w.masks = make([]byte, n)
	w.stage = make([]byte, n)
	w.partial = make([]bool, n)
	for i := range w.masks {
		b := byte(0x01)
		if i < len(data) {
			b = data[i]
		}
		m := b & 0x3f
		if m == 0 {
			m = 0x01
		}
		w.masks[i], w.stage[i] = m, m
		if b&0x40 != 0 && bits.OnesCount8(m) > 1 {
			w.stage[i] = m &^ (m & -m) // drop the lowest layer
		}
		w.partial[i] = b&0x80 != 0
	}
	if n < len(data) {
		policy = data[n:]
	}
	return w, policy
}

// fuzzSubnets is one decoded admission workload.
type fuzzSubnets struct {
	masks   []byte // every layer the subnet selects
	stage   []byte // the subset on the scheduler's stage
	partial []bool // retire one layer's WRITE at a time
	rotate  int    // registration starts at this seq and wraps
}

func maskLayers(m byte) []supernet.LayerID {
	var out []supernet.LayerID
	for b := 0; b < 6; b++ {
		if m&(1<<b) != 0 {
			out = append(out, supernet.LayerID(b))
		}
	}
	return out
}

// FuzzSchedulerAdmission drives a Scheduler through a full admit/retire
// lifecycle and checks the CSP admission properties on every step:
//
//  1. Safety — no forward is admitted while an earlier unfinished subnet
//     still holds (has not marked written) one of its stage layers,
//     checked directly on the bitmasks.
//  2. Equivalence — Schedule, ScheduleAssuming, Blocked and
//     BlockingWriter agree with the map-based twin the dense index
//     replaced, and Schedule agrees with the paper-literal
//     ReferenceSchedule whenever no WRITE is partially marked (the
//     oracle knows only whole-subnet completion).
//  3. Liveness — on a fault-free stream the workload always drains: a
//     Schedule scan that admits nothing while nothing is in flight
//     would be a permanent stall.
func FuzzSchedulerAdmission(f *testing.F) {
	f.Add([]byte{4, 0x03, 0x03, 0x0c, 0x30})                            // two colliding pairs
	f.Add([]byte{8, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f, 0x3f})                // total collision chain
	f.Add([]byte{3, 0x01, 0x02, 0x04, 0xff, 0x00, 0xaa})                // disjoint + retire noise
	f.Add([]byte{12})                                                   // defaulted masks
	f.Add([]byte{0x35, 0xc3, 0x47, 0x8f, 0x3f, 0xc6, 0x03, 0x05, 0x07}) // subsets, partial writes, rotated
	f.Fuzz(func(t *testing.T, data []byte) {
		w, policy := fuzzWorkload(data)
		if w.masks == nil {
			t.Skip()
		}
		masks := w.masks
		n := len(masks)
		s, ref := New(0), newRefScheduler()
		for i := range masks {
			seq := (i + w.rotate) % n
			info := SubnetInfo{Seq: seq, AllLayers: maskLayers(masks[seq]), StageLayers: maskLayers(w.stage[seq])}
			if err := s.AddSubnet(info); err != nil {
				t.Fatalf("AddSubnet(%d): %v", seq, err)
			}
			if err := ref.AddSubnet(info); err != nil {
				t.Fatalf("twin AddSubnet(%d): %v", seq, err)
			}
		}

		queue := make([]int, n)
		for i := range queue {
			queue[i] = i
		}
		var inflight []int // admitted forwards whose backward has not retired
		retired := make([]bool, n)
		written := make([]byte, n) // layers whose WRITE is marked
		pi := 0
		nextPolicy := func() byte {
			if len(policy) == 0 {
				return 0
			}
			b := policy[pi%len(policy)]
			pi++
			return b
		}
		retire := func(k int) { // advance inflight[k]'s retirement
			seq := inflight[k]
			left := masks[seq] &^ written[seq]
			if w.partial[seq] && bits.OnesCount8(left) > 1 {
				low := left & -left
				s.MarkWritten(seq, maskLayers(low))
				ref.MarkWritten(seq, maskLayers(low))
				written[seq] |= low
				return
			}
			inflight = append(inflight[:k], inflight[k+1:]...)
			s.MarkWritten(seq, maskLayers(left))
			ref.MarkWritten(seq, maskLayers(left))
			written[seq] = masks[seq]
			s.MarkFinished(seq)
			ref.MarkFinished(seq)
			retired[seq] = true
		}
		partialOutstanding := func() bool {
			for _, seq := range inflight {
				if written[seq] != 0 {
					return true
				}
			}
			return false
		}

		for steps := 0; len(queue) > 0 || len(inflight) > 0; steps++ {
			if steps > 16*n+16 {
				t.Fatalf("no progress after %d steps: queue=%v inflight=%v", steps, queue, inflight)
			}
			for _, seq := range queue {
				if got, want := s.Blocked(seq), ref.Blocked(seq); got != want {
					t.Fatalf("Blocked(%d) = %v, map twin %v", seq, got, want)
				}
				if got, want := s.BlockingWriter(seq), ref.BlockingWriter(seq); got != want {
					t.Fatalf("BlockingWriter(%d) = %d, map twin %d", seq, got, want)
				}
			}
			ai, av := s.ScheduleAssuming(queue, inflight...)
			if ri, rv := ref.ScheduleAssuming(queue, inflight...); ai != ri || av != rv {
				t.Fatalf("ScheduleAssuming(%v, %v) = (%d,%d), map twin (%d,%d)", queue, inflight, ai, av, ri, rv)
			}
			fin, fr, subs := s.Snapshot()
			qi, qv := s.Schedule(queue)
			if ri, rv := ref.Schedule(queue); qi != ri || qv != rv {
				t.Fatalf("Schedule (%d,%d) != map twin (%d,%d); queue=%v", qi, qv, ri, rv, queue)
			}
			if !partialOutstanding() {
				if ri, rv := ReferenceSchedule(queue, fin, fr, subs); qi != ri || qv != rv {
					t.Fatalf("indexed Schedule (%d,%d) != reference (%d,%d); queue=%v", qi, qv, ri, rv, queue)
				}
			}
			if qi >= 0 {
				// Safety: recompute the causal check from first principles.
				for e := 0; e < qv; e++ {
					if held := masks[e] &^ written[e]; !retired[e] && held&w.stage[qv] != 0 {
						t.Fatalf("admitted subnet %d while unfinished subnet %d still holds layers %#x",
							qv, e, held&w.stage[qv])
					}
				}
				queue = append(queue[:qi], queue[qi+1:]...)
				inflight = append(inflight, qv)
				// Retire policy from the fuzz bytes: any in-flight subnet may
				// retire, in any order — out-of-order backwards are legal.
				if p := nextPolicy(); len(inflight) > 0 && p&1 == 1 {
					retire(int(p>>1) % len(inflight))
				}
				continue
			}
			// Nothing admissible. Liveness demands something is in flight.
			if len(inflight) == 0 {
				t.Fatalf("permanent stall: queue=%v with nothing in flight", queue)
			}
			retire(int(nextPolicy()>>1) % len(inflight))
		}
		if got := s.Frontier(); got != n {
			t.Fatalf("drained workload left frontier at %d, want %d", got, n)
		}
		if left := s.FinishedSeqs(); len(left) != 0 {
			t.Fatalf("drained workload left finished gaps %v", left)
		}
	})
}
