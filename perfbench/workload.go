package main

import (
	"fmt"
	"math/rand"

	"nfactor"
)

// params sizes one workload. The command line always uses the full
// sizes of newWorkload; the self-tests shrink them.
type params struct {
	flows    int     // distinct flows in the trace
	traceLen int     // trace entries; the measured sequence loops over them
	repPkts  int64   // closed loop: packets per timed rep
	segPkts  int64   // packets served closed loop around each segment swap
	rate     float64 // open loop: offered packets per second
	swaps    int     // open loop: swaps during the measured window
	segSwaps int     // closed loop: swaps spread over the window; open loop: swaps after it
	setups   int     // set-up repetitions; setup_s is their median
	prefix   int     // chain-churn: packets per rep checked from pristine state
}

// workload is one traffic mix: the NF or chain it drives, the packets
// served during set-up and the measured sequence.
type workload struct {
	name string
	nfs  []string // one corpus NF, or the chain's stages in order
	open bool     // open loop at p.rate; otherwise closed loop
	p    params
	warm []nfactor.Packet // served closed-loop during set-up
	// trace is the measured sequence, looped. With churn, every pass
	// over it moves each flow's client port by p.flows, so each pass
	// opens fresh flows; clientIsSrc says which port is the client's.
	trace       []nfactor.Packet
	churn       bool
	clientIsSrc []bool
}

const (
	clientPortBase = 1024
	churnPorts     = 60000 // client ports stay in [1024, 61024)
	natIP          = "5.5.5.5"
	natPortBase    = 20000 // the NAT's first allocated public port
)

var workloadNames = []string{"fw-hot", "chain-churn", "nat-swap"}

// fullParams are the command-line sizes of each workload.
func fullParams(name string) params {
	switch name {
	case "fw-hot":
		return params{flows: 256, traceLen: 8192, repPkts: 1 << 19, segPkts: 1 << 16, segSwaps: 17, setups: 31}
	case "chain-churn":
		return params{flows: 512, traceLen: 8192, repPkts: 1 << 18, segPkts: 1 << 15, segSwaps: 9, setups: 21, prefix: 16384}
	case "nat-swap":
		return params{flows: 45000, traceLen: 32768, segPkts: 1 << 16, rate: 100000, swaps: 2, segSwaps: 3, setups: 9}
	}
	return params{}
}

// newWorkload builds a workload's packets from seed. The same seed gives
// the same packets; the verdict mix is fixed by flow rank, so it barely
// moves with the seed.
func newWorkload(name string, seed int64, p params) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "fw-hot":
		return fwHot(rng, p), nil
	case "chain-churn":
		return chainChurn(rng, p), nil
	case "nat-swap":
		return natSwap(rng, p), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// packet writes the k-th packet of the measured sequence into p.
func (w *workload) packet(k int64, p *nfactor.Packet) {
	n := int64(len(w.trace))
	i := k % n
	*p = w.trace[i]
	if w.churn {
		shift := int((k / n) * int64(w.p.flows) % churnPorts)
		if w.clientIsSrc[i] {
			p.SrcPort = shiftPort(p.SrcPort, shift)
		} else {
			p.DstPort = shiftPort(p.DstPort, shift)
		}
	}
}

func shiftPort(port, shift int) int {
	return clientPortBase + (port-clientPortBase+shift)%churnPorts
}

type flow struct {
	cip, sip     string // client and server addresses
	cport, sport int
	kind         int
}

func clientIP(rng *rand.Rand) string {
	return fmt.Sprintf("10.%d.%d.%d", rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
}

func serverIP(rng *rand.Rand) string {
	return fmt.Sprintf("%d.%d.%d.%d", 11+rng.Intn(180), rng.Intn(256), rng.Intn(256), 1+rng.Intn(254))
}

// zipfRanks draws n flow ranks in [0, flows) with skew 1.1: rank 0 is
// the hottest flow.
func zipfRanks(rng *rand.Rand, flows, n int) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(flows-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

func egress(f *flow, iface, flags string, rng *rand.Rand) nfactor.Packet {
	return nfactor.Packet{SrcIP: f.cip, SrcPort: f.cport, DstIP: f.sip, DstPort: f.sport,
		Proto: "tcp", Flags: flags, TTL: 64, Length: 1 + rng.Intn(1400), InIface: iface}
}

func reply(f *flow, iface string, rng *rand.Rand) nfactor.Packet {
	return nfactor.Packet{SrcIP: f.sip, SrcPort: f.sport, DstIP: f.cip, DstPort: f.cport,
		Proto: "tcp", Flags: "A", TTL: 64, Length: 1 + rng.Intn(1400), InIface: iface}
}

// Flow kinds, assigned by rank modulo 8 so hot and cold flows mix the
// same way under every seed.
const (
	kindServed  = iota // traffic the NF forwards, both directions
	kindAlt            // forwarded by the first stage, dropped later
	kindBlocked        // dropped by policy
	kindStray          // unsolicited inbound, dropped
)

func kindOf(rank int) int {
	switch rank % 8 {
	case 5:
		return kindAlt
	case 6:
		return kindBlocked
	case 7:
		return kindStray
	}
	return kindServed
}

// fwHot: the firewall over a small fixed flow set, LAN egress to the
// allowed ports plus WAN replies. After one pass every flow is known and
// the state is only read (and rewritten with the same values).
func fwHot(rng *rand.Rand, p params) *workload {
	allowed := []int{80, 443, 53, 22}
	flows := make([]flow, p.flows)
	for i := range flows {
		f := flow{cip: clientIP(rng), sip: serverIP(rng), cport: clientPortBase + i, sport: allowed[i%4], kind: kindOf(i)}
		if f.kind == kindBlocked {
			f.sport = 8080
		}
		flows[i] = f
	}
	w := &workload{name: "fw-hot", nfs: []string{"firewall"}, p: p}
	for _, r := range zipfRanks(rng, p.flows, p.traceLen) {
		f := &flows[r]
		switch {
		case f.kind == kindStray:
			w.trace = append(w.trace, reply(f, "wan", rng))
		case f.kind == kindBlocked || rng.Float64() < 0.6:
			w.trace = append(w.trace, egress(f, "lan", "A", rng))
		default:
			w.trace = append(w.trace, reply(f, "wan", rng))
		}
	}
	w.warm = w.trace
	return w
}

// chainChurn: firewall -> snortlite -> lb from pristine state. Most
// flows are LAN clients of the load-balanced service on port 80; each
// flow opens with a SYN. Ports shift every pass (see workload.churn).
func chainChurn(rng *rand.Rand, p params) *workload {
	flows := make([]flow, p.flows)
	for i := range flows {
		f := flow{cip: clientIP(rng), sip: serverIP(rng), cport: clientPortBase + i, sport: 80, kind: kindOf(i)}
		switch f.kind {
		case kindAlt:
			f.sport = 443 // allowed by the firewall, dropped by the balancer
		case kindBlocked:
			f.sport = 23 // not in the firewall's egress policy
		}
		flows[i] = f
	}
	w := &workload{name: "chain-churn", nfs: []string{"firewall", "snortlite", "lb"}, p: p, churn: true}
	seen := make([]bool, p.flows)
	for _, r := range zipfRanks(rng, p.flows, p.traceLen) {
		f := &flows[r]
		if f.kind == kindStray || (f.kind == kindServed && seen[r] && rng.Float64() < 0.25) {
			w.trace = append(w.trace, reply(f, "wan", rng))
			w.clientIsSrc = append(w.clientIsSrc, false)
			continue
		}
		flags := "A"
		if !seen[r] {
			flags = "S"
		}
		seen[r] = true
		w.trace = append(w.trace, egress(f, "lan", flags, rng))
		w.clientIsSrc = append(w.clientIsSrc, true)
	}
	return w
}

// natSwap: the NAT with p.flows LAN flows installed during set-up
// (flow i gets public port natPortBase+i), then Zipf traffic over those
// flows: LAN egress, WAN replies to the public ports, and a few
// unsolicited WAN packets to ports no flow holds. The measured traffic
// only reads the translation tables.
func natSwap(rng *rand.Rand, p params) *workload {
	flows := make([]flow, p.flows)
	w := &workload{name: "nat-swap", nfs: []string{"nat"}, p: p, open: true}
	for i := range flows {
		f := flow{cip: clientIP(rng), sip: serverIP(rng), cport: clientPortBase + i, sport: []int{80, 443}[i%2]}
		flows[i] = f
		w.warm = append(w.warm, egress(&f, "lan", "S", rng))
	}
	for _, r := range zipfRanks(rng, p.flows, p.traceLen) {
		f := &flows[r]
		switch x := rng.Float64(); {
		case x < 0.65:
			w.trace = append(w.trace, egress(f, "lan", "A", rng))
		case x < 0.95:
			pk := reply(f, "wan", rng)
			pk.DstIP, pk.DstPort = natIP, natPortBase+r
			w.trace = append(w.trace, pk)
		default:
			pk := reply(f, "wan", rng)
			pk.DstIP, pk.DstPort = natIP, natPortBase+p.flows+rng.Intn(500)
			w.trace = append(w.trace, pk)
		}
	}
	return w
}
