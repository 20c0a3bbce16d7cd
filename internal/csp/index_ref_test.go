package csp

import (
	"fmt"
	"testing"

	"naspipe/internal/supernet"
)

// refScheduler is the map-of-maps admission index the dense per-layer
// slices replaced, kept as a differential twin: every layer maps to the
// set of active subnets selecting it, and every check visits the whole
// set, later subnets included.
type refScheduler struct {
	subnets  map[int]*SubnetInfo
	finished map[int]bool
	frontier int
	users    map[supernet.LayerID]map[int]bool
}

func newRefScheduler() *refScheduler {
	return &refScheduler{
		subnets:  make(map[int]*SubnetInfo),
		finished: make(map[int]bool),
		users:    make(map[supernet.LayerID]map[int]bool),
	}
}

func (s *refScheduler) AddSubnet(info SubnetInfo) error {
	if info.Seq < s.frontier {
		return fmt.Errorf("csp: subnet %d below frontier %d", info.Seq, s.frontier)
	}
	if _, dup := s.subnets[info.Seq]; dup {
		return fmt.Errorf("csp: subnet %d already registered", info.Seq)
	}
	cp := info
	s.subnets[info.Seq] = &cp
	for _, l := range info.AllLayers {
		if s.users[l] == nil {
			s.users[l] = make(map[int]bool)
		}
		s.users[l][info.Seq] = true
	}
	return nil
}

func (s *refScheduler) MarkFinished(seq int) {
	if seq < s.frontier || s.finished[seq] {
		return
	}
	s.finished[seq] = true
	for s.finished[s.frontier] {
		delete(s.finished, s.frontier)
		if info := s.subnets[s.frontier]; info != nil {
			s.MarkWritten(s.frontier, info.AllLayers)
		}
		delete(s.subnets, s.frontier)
		s.frontier++
	}
}

func (s *refScheduler) MarkWritten(seq int, ids []supernet.LayerID) {
	for _, l := range ids {
		if set := s.users[l]; set != nil {
			delete(set, seq)
			if len(set) == 0 {
				delete(s.users, l)
			}
		}
	}
}

func (s *refScheduler) finishedSeq(seq int) bool { return seq < s.frontier || s.finished[seq] }

func (s *refScheduler) Blocked(seq int) bool { return s.blockedAssuming(seq, nil) }

func (s *refScheduler) BlockingWriter(seq int) int {
	info := s.subnets[seq]
	if info == nil {
		return -1
	}
	min := -1
	for _, l := range info.StageLayers {
		for w := range s.users[l] {
			if w < seq && !s.finishedSeq(w) && (min == -1 || w < min) {
				min = w
			}
		}
	}
	return min
}

func (s *refScheduler) Schedule(queue []int) (qidx, qval int) {
	return s.ScheduleAssuming(queue)
}

func (s *refScheduler) ScheduleAssuming(queue []int, finished ...int) (qidx, qval int) {
	for i, seq := range queue {
		if !s.blockedAssuming(seq, finished) {
			return i, seq
		}
	}
	return -1, -1
}

func (s *refScheduler) blockedAssuming(seq int, assume []int) bool {
	info := s.subnets[seq]
	if info == nil {
		return true
	}
	for _, l := range info.StageLayers {
	users:
		for w := range s.users[l] {
			if w < seq && !s.finishedSeq(w) {
				for _, f := range assume {
					if f == w {
						continue users
					}
				}
				return true
			}
		}
	}
	return false
}

// admissionIndex is the surface the replay benchmark drives, so the
// dense index and its map twin run the identical workload.
type admissionIndex interface {
	AddSubnet(SubnetInfo) error
	Schedule(queue []int) (qidx, qval int)
	MarkWritten(seq int, ids []supernet.LayerID)
	MarkFinished(seq int)
}

// register adds every subnet to idx.
func register(tb testing.TB, idx admissionIndex, infos []SubnetInfo) {
	for _, info := range infos {
		if err := idx.AddSubnet(info); err != nil {
			tb.Fatal(err)
		}
	}
}

// replayAdmission admits the registered subnets in sequence order
// through a sliding queue window, marking each one's WRITEs and finish
// as it retires — the stage loop's index traffic in canonical order.
func replayAdmission(tb testing.TB, idx admissionIndex, infos []SubnetInfo, window int) {
	n := len(infos)
	queue := make([]int, 0, window)
	for seq := 0; seq < n; seq++ {
		queue = queue[:0]
		for i := seq; i < n && i < seq+window; i++ {
			queue = append(queue, i)
		}
		if _, got := idx.Schedule(queue); got != seq {
			tb.Fatalf("admitted %d, canonical order wants %d", got, seq)
		}
		idx.MarkWritten(seq, infos[seq].AllLayers)
		idx.MarkFinished(seq)
	}
}

// benchReplay times replayAdmission on the csp-ckpt benchmark
// workload's admission input (768 NLP.c1 subnets, stage 0 of a 4-deep
// balanced pipeline) alone; registration runs with the
// timer stopped, so the pair compares the index's read and retire
// paths, not its construction.
func benchReplay(b *testing.B, fresh func() admissionIndex) {
	infos := benchInfos(b, 768, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx := fresh()
		register(b, idx, infos)
		b.StartTimer()
		replayAdmission(b, idx, infos, 32)
	}
}

func BenchmarkAdmissionReplay(b *testing.B) {
	benchReplay(b, func() admissionIndex { return New(0) })
}

func BenchmarkAdmissionReplayRef(b *testing.B) {
	benchReplay(b, func() admissionIndex { return newRefScheduler() })
}
