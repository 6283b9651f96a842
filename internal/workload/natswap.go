package workload

import (
	"fmt"

	"nfactor/internal/netpkt"
)

// NATLanFlow is LAN flow i of the NAT swap stimulus: a distinct
// (source address, source port) pair, so every flow allocates its own
// public port on first sight — flow i gets the i-th port handed out.
func NATLanFlow(i int) netpkt.Packet {
	return netpkt.Packet{
		SrcIP:   fmt.Sprintf("10.%d.%d.%d", i>>16&0xff, i>>8&0xff, i&0xff),
		DstIP:   "7.7.7.7",
		SrcPort: 1024 + i%50000, DstPort: 80,
		Proto: "tcp", Flags: "A", TTL: 64, InIface: "lan",
	}
}

// NATWarm opens flows LAN flows, one packet each: the NAT's translation
// tables grow to exactly flows entries.
func NATWarm(flows int) []netpkt.Packet {
	out := make([]netpkt.Packet, flows)
	for i := range out {
		out[i] = NATLanFlow(i)
	}
	return out
}

// NATWindow is n packets over the first `active` warmed flows — three
// LAN packets for every WAN reply to the flow's public port (natBase+i
// for flow i, the allocator's first-come order). It depends on neither
// the table size nor a seed, so swaps gated over it do identical work
// whatever state the NAT holds; it needs at least `active` warmed flows.
func NATWindow(n, active, natBase int) []netpkt.Packet {
	out := make([]netpkt.Packet, n)
	for k := range out {
		i := k % active
		if k%4 != 3 {
			out[k] = NATLanFlow(i)
			continue
		}
		out[k] = netpkt.Packet{
			SrcIP: "7.7.7.7", DstIP: "5.5.5.5", SrcPort: 80, DstPort: natBase + i,
			Proto: "tcp", Flags: "A", TTL: 60, InIface: "wan",
		}
	}
	return out
}
