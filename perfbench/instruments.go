package main

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"nfactor"
)

// parseProm reads the samples of a Prometheus text payload into
// name -> value, keeping the first sample of each name.
func parseProm(payload []byte) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(payload))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed sample %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed sample %q: %v", line, err)
		}
		if _, dup := out[name]; !dup {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// checkInstruments reads the server's own counters, from Stats and from
// the /metrics payload, and counts every one that disagrees with what
// the benchmark itself saw as a failure.
func (b *bench) checkInstruments(srv *nfactor.Server) {
	var buf bytes.Buffer
	if err := nfactor.WriteServeMetrics(&buf, srv, b.w.name, nil); err != nil {
		b.fail("WriteServeMetrics: %v", err)
		return
	}
	prom, err := parseProm(buf.Bytes())
	if err != nil {
		b.fail("parse /metrics: %v", err)
		return
	}
	st := srv.Stats()
	checks := []struct {
		name  string
		bench int64
		stats int64
	}{
		{"nfactor_serve_packets_total", b.cnt.emits, st.Packets},
		{"nfactor_serve_swaps_total", b.cnt.applied, st.Swaps},
		{"nfactor_serve_swaps_blocked_total", b.cnt.blocked, st.SwapsBlocked},
		{"nfactor_serve_carried_vars_total", b.cnt.carried, st.CarriedVars},
		{"nfactor_serve_epoch_violations_total", 0, st.EpochViolations},
		{"nfactor_serve_generation", 1 + b.cnt.applied, int64(st.Generation)},
	}
	for _, c := range checks {
		got, ok := prom[c.name]
		switch {
		case !ok:
			b.fail("/metrics lacks %s", c.name)
		case int64(got) != c.bench || c.stats != c.bench:
			b.fail("%s: benchmark counted %d, Stats says %d, /metrics says %v", c.name, c.bench, c.stats, got)
		}
	}
}
