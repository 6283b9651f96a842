package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"time"

	"nfactor"
)

// epoch anchors every harness timestamp: now() is monotonic ns since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// sampled picks the closed-loop packets that get timestamps: one in 16,
// by a multiplicative hash of the index so the samples do not line up
// with batch positions. The timing costs well under 1% of a packet.
func sampled(k int64) bool { return uint64(k)*0x9E3779B97F4A7C15>>60 == 0 }

// ringSize bounds the packets between Next and Emit: a batch is at most
// 64, so 256 slots never wrap onto a packet still in flight.
const ringSize = 256

// source is the benchmark's nfactor.Source. It serves either the
// workload's warm-up packets or a range of the measured sequence, closed
// loop (as fast as the server pulls) or open loop (packet k is due at
// start + k/rate and is not handed out before then).
type source struct {
	w          *workload
	warm       bool
	k, end     int64
	open       bool
	start      int64 // open loop: due time of packet `first`, ns
	first      int64
	intervalNs float64
	instrument bool // time the sampled calls themselves (traced runs)

	due, got [ringSize]int64 // per in-flight packet: due time, Next return time
	cost     callCost        // traced: own time of the timed calls
}

func (s *source) armWarm() {
	s.warm, s.k, s.end, s.open = true, 0, int64(len(s.w.warm)), false
}

func (s *source) armClosed(from, n int64) {
	s.warm, s.k, s.end, s.open = false, from, from+n, false
}

func (s *source) armOpen(from, n int64, rate float64) {
	s.warm, s.k, s.end, s.open = false, from, from+n, true
	s.first, s.intervalNs = from, 1e9/rate
	s.start = now()
}

// timed reports whether packet k carries timestamps.
func (s *source) timed(k int64) bool { return s.open || sampled(k) }

func (s *source) Next(p *nfactor.Packet) (bool, error) {
	if s.k >= s.end {
		return false, nil
	}
	k := s.k
	s.k++
	if s.warm {
		*p = s.w.warm[k]
		return true, nil
	}
	if !s.timed(k) {
		s.w.packet(k, p)
		return true, nil
	}
	entry := now()
	due := entry
	if s.open {
		due = s.start + int64(float64(k-s.first)*s.intervalNs)
		if entry < due {
			s.waitUntil(due)
			entry = now()
		}
	}
	s.w.packet(k, p)
	t := now()
	s.due[k%ringSize], s.got[k%ringSize] = due, t
	if s.instrument {
		s.cost.ns += t - entry
		s.cost.n++
	}
	return true, nil
}

// waitUntil sleeps while the due time is far and spins the last stretch,
// so packets leave on schedule without a timer's slack.
func (s *source) waitUntil(due int64) {
	if d := due - now(); d > 200_000 {
		time.Sleep(time.Duration(d - 100_000))
	}
	for now() < due {
		runtime.Gosched()
	}
}

// sink is the benchmark's nfactor.Sink. It checks every verdict the
// oracle knows, timestamps the packets the source timed, and measures
// the dark time across each swap from its own emit timestamps.
type sink struct {
	src    *source
	oracle *oracle
	k      int64 // measured-sequence index of the next emit
	warm   bool

	emits     int64 // all packets emitted, warm-up included
	checked   int64
	wrong     int64
	firstBad  string
	lastEpoch uint64
	regress   int64 // emits whose epoch went backwards

	stampAll bool  // swap segments: timestamp every emit, record no latency
	lastEmit int64 // ns, when stampAll or open
	gapsMs   []float64
	swapAt   []int64 // index of the first packet each new generation served

	latency, pullWait, hold hist
	cost                    callCost // traced: own time of the timed emits
}

func (s *sink) Emit(seq int64, p *nfactor.Packet, o *nfactor.Outcome) error {
	s.emits++
	if o.Epoch < s.lastEpoch {
		s.regress++
	}
	epochChanged := s.lastEpoch != 0 && o.Epoch != s.lastEpoch
	s.lastEpoch = o.Epoch
	if s.warm {
		return nil
	}
	k := s.k
	s.k++
	timed := s.src.timed(k)
	var t int64
	if timed || s.stampAll {
		t = now()
		if epochChanged && s.lastEmit != 0 {
			s.gapsMs = append(s.gapsMs, float64(t-s.lastEmit)/1e6)
			s.swapAt = append(s.swapAt, k)
		}
		s.lastEmit = t
	}
	if want, ok := s.oracle.lookup(k); ok {
		s.checked++
		if d := diffVerdict(want, &o.Verdict); d != "" {
			s.wrong++
			if s.firstBad == "" {
				s.firstBad = fmt.Sprintf("packet %d (%s): %s", k, p, d)
			}
		}
	}
	if timed && !s.stampAll {
		if s.src.instrument {
			s.cost.ns += now() - t
			s.cost.n++
		}
		i := k % ringSize
		due, got := s.src.due[i], s.src.got[i]
		s.latency.add(t - due)
		s.pullWait.add(got - due)
		s.hold.add(t - got)
	}
	return nil
}

// hist is a log-linear histogram of non-negative nanosecond values with
// 128 sub-buckets per power of two (0.8% resolution).
type hist struct {
	counts []int64
	n      int64
}

const histSub = 128

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	var i int
	if v < histSub {
		i = int(v)
	} else {
		e := bits.Len64(uint64(v)) - 8 // v>>e lies in [128, 256)
		i = (e+1)*histSub + int(v>>e) - histSub
	}
	if i >= len(h.counts) {
		n := make([]int64, i+histSub)
		copy(n, h.counts)
		h.counts = n
	}
	h.counts[i]++
	h.n++
}

func (h *hist) reset() {
	clear(h.counts)
	h.n = 0
}

// quantile returns the q-quantile in ns (the middle of its bucket).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if i < histSub {
				return float64(i)
			}
			e := i/histSub - 1
			lo := float64(int64(histSub+i%histSub) << e)
			return lo + float64(int64(1)<<e)/2
		}
	}
	return math.NaN()
}
