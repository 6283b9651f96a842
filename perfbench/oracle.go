package main

import (
	"fmt"

	"nfactor"
)

// oracle holds the expected verdicts, computed by the original NF
// programs (never by the compiled engine the server runs).
type oracle struct {
	want []nfactor.Verdict
	// cyclic: want[i] holds for every packet k with k%len(want) == i
	// (state is steady after set-up). Otherwise only packets
	// k < len(want) are checked (a prefix served from pristine state).
	cyclic bool
}

func (o *oracle) lookup(k int64) (*nfactor.Verdict, bool) {
	if o == nil || len(o.want) == 0 || k < 0 {
		return nil, false
	}
	if o.cyclic {
		return &o.want[k%int64(len(o.want))], true
	}
	if k < int64(len(o.want)) {
		return &o.want[k], true
	}
	return nil, false
}

// diffVerdict compares the observable behaviour: drop or forward, the
// packets sent and their interfaces. "" means equal.
func diffVerdict(want, got *nfactor.Verdict) string {
	if want.Dropped != got.Dropped || len(want.Sent) != len(got.Sent) || len(want.Ifaces) != len(got.Ifaces) {
		return fmt.Sprintf("want %v, got %v", *want, *got)
	}
	for i := range want.Sent {
		if want.Sent[i] != got.Sent[i] || want.Ifaces[i] != got.Ifaces[i] {
			return fmt.Sprintf("want %v, got %v", *want, *got)
		}
	}
	return ""
}

// reference runs packets through the original programs of a chain's
// stages, handing each stage's sent packets to the next stage depth
// first, the order the fused chain uses.
type reference []nfactor.Replayer

func newReference(nfs []string) (reference, error) {
	ref := make(reference, len(nfs))
	for i, name := range nfs {
		res, err := nfactor.AnalyzeCorpus(name, nfactor.Options{})
		if err != nil {
			return nil, err
		}
		if ref[i], err = res.Replayer(nfactor.BackendProgram); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

func (r reference) process(p nfactor.Packet) (nfactor.Verdict, error) {
	var v nfactor.Verdict
	if err := r.run(0, p, "", &v); err != nil {
		return nfactor.Verdict{}, err
	}
	v.Dropped = len(v.Sent) == 0
	return v, nil
}

func (r reference) run(stage int, p nfactor.Packet, iface string, out *nfactor.Verdict) error {
	if stage == len(r) {
		out.Sent = append(out.Sent, p)
		out.Ifaces = append(out.Ifaces, iface)
		return nil
	}
	v, err := r[stage].Process(&p)
	if err != nil {
		return fmt.Errorf("reference stage %d: %w", stage, err)
	}
	for i := range v.Sent {
		if err := r.run(stage+1, v.Sent[i], v.Ifaces[i], out); err != nil {
			return err
		}
	}
	return nil
}

// steadyOracle replays the warm-up and one pass of the trace through the
// programs and records the verdict of every trace entry. It then replays
// the trace again and requires the same verdicts: the workload's state
// must be steady after set-up, or per-index checking would be wrong.
func steadyOracle(w *workload, recheck int) (*oracle, error) {
	ref, err := newReference(w.nfs)
	if err != nil {
		return nil, err
	}
	for _, p := range w.warm {
		if _, err := ref.process(p); err != nil {
			return nil, err
		}
	}
	o := &oracle{want: make([]nfactor.Verdict, len(w.trace)), cyclic: true}
	for i, p := range w.trace {
		if o.want[i], err = ref.process(p); err != nil {
			return nil, err
		}
	}
	for i := 0; i < recheck && i < len(w.trace); i++ {
		v, err := ref.process(w.trace[i])
		if err != nil {
			return nil, err
		}
		if d := diffVerdict(&o.want[i], &v); d != "" {
			return nil, fmt.Errorf("%s: state is not steady after set-up at trace entry %d: %s", w.name, i, d)
		}
	}
	return o, nil
}

// prefixOracle replays the first n packets of the measured sequence
// from pristine state.
func prefixOracle(w *workload, n int) (*oracle, error) {
	ref, err := newReference(w.nfs)
	if err != nil {
		return nil, err
	}
	o := &oracle{want: make([]nfactor.Verdict, n)}
	var p nfactor.Packet
	for k := range o.want {
		w.packet(int64(k), &p)
		if o.want[k], err = ref.process(p); err != nil {
			return nil, err
		}
	}
	return o, nil
}
