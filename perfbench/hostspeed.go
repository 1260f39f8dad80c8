package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"time"
)

// A shared host's speed drifts between runs: CPU time stolen by other
// guests and contention for the cores' caches come and go over minutes and
// move every timing of a run together. On a 2-vCPU KVM guest the raw p50 of
// 20 s static-read runs read from 0.09 ms to 0.21 ms (under 10% steal) from
// one period to another. The end-to-end times and rates are therefore
// reported at a reference host speed: each run times a fixed probe, which
// calls nothing of the program, before every slice of the closed loop
// (build: before every document of a pass), on a collected heap with no
// request in flight, and scales its raw times by
// (probeRefSeconds / k)^probeElasticity, with k the probe's median time
// (rates by the inverse). A change to the program moves the workload and
// not the probe, so it shows at full size; a slow host period moves both
// and cancels. The raw figures are printed on the summary lines as
// raw.<metric>.

// probeRefSeconds is the probe's median time on the reference host, a
// 2-vCPU KVM guest of a 2.1 GHz Xeon, in a slow period (2.0-2.6 ms over
// runs of all three workloads; 0.9-1.9 ms in faster periods). Normalized
// figures equal raw ones on a host whose probe runs this fast.
const probeRefSeconds = 0.0022

// probeElasticity is how strongly the workloads' raw figures follow the
// probe's time, measured on the reference host in ten-seed sets of runs in
// three host periods whose probe medians were 2.3, 1.4 and 1.1 ms. Between
// the first two, the gated times and rates of all three workloads moved as
// the 0.55 to 0.79 power of the probe's time, most near 0.7: the probe's
// small, cache-resident work gains more from a quiet host than the
// program's larger working sets, and scaling by the full ratio made the
// faster period's figures read 10-19% worse. Over all three periods the
// raw medians moved by up to 1.8x; scaled by the 0.7th power they stayed
// within -15% and +11% of the slow period's, most within 7%.
const probeElasticity = 0.7

// probeRoundTrips is how many 64-byte loopback round trips one probe makes:
// the system calls, wake-ups and small copies a request's path is made of.
const probeRoundTrips = 64

// probesPerSample is how many probes each sample point runs. The probe's
// time is bimodal from one point to the next (about 1.5x between modes, as
// other guests come and go), so many points with few probes each track the
// mix of modes a run saw better than few points with many.
const probesPerSample = 4

// probeDoc is the probe's CPU part: a fixed tree that every probe encodes
// and decodes with encoding/json (allocation, maps, reflection and string
// work, as in the program's parsing and evaluation).
type probeDoc struct {
	Name string            `json:"name"`
	Vals []int             `json:"vals"`
	Attr map[string]string `json:"attr"`
	Kids []*probeDoc       `json:"kids"`
}

func newProbeDoc(depth, i int) *probeDoc {
	d := &probeDoc{Name: "n" + strconv.Itoa(depth*10+i), Vals: []int{depth, i, depth * i},
		Attr: map[string]string{"a": "v" + strconv.Itoa(i)}}
	if depth < 4 {
		for k := 0; k < 4; k++ {
			d.Kids = append(d.Kids, newProbeDoc(depth+1, k))
		}
	}
	return d
}

// hostProbe times the probe. It owns a loopback echo server on one
// connection for the run.
type hostProbe struct {
	ln   net.Listener
	conn net.Conn
	echo chan struct{} // closed when the echo goroutine has returned
	doc  *probeDoc
	buf  []byte
	// roundTrips and cpu are the two parts' times of every probe, total
	// their sum, in seconds.
	roundTrips, cpu, total []float64
}

func newHostProbe() (*hostProbe, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &hostProbe{ln: ln, echo: make(chan struct{}), doc: newProbeDoc(0, 0), buf: make([]byte, 64)}
	accepted := make(chan net.Conn, 1)
	go func() {
		defer close(p.echo)
		c, err := ln.Accept()
		accepted <- c
		if err != nil {
			return
		}
		defer c.Close()
		b := make([]byte, 64)
		for {
			if _, err := io.ReadFull(c, b); err != nil {
				return
			}
			if _, err := c.Write(b); err != nil {
				return
			}
		}
	}()
	p.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		// Closing the listener ends the pending Accept.
		p.close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	if <-accepted == nil {
		p.close()
		return nil, errors.New("probe: loopback accept failed")
	}
	return p, nil
}

// sample runs probesPerSample probes.
func (p *hostProbe) sample() error {
	for range probesPerSample {
		t0 := time.Now()
		for range probeRoundTrips {
			if _, err := p.conn.Write(p.buf); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
			if _, err := io.ReadFull(p.conn, p.buf); err != nil {
				return fmt.Errorf("probe: %w", err)
			}
		}
		t1 := time.Now()
		b, err := json.Marshal(p.doc)
		if err != nil {
			return err
		}
		var back probeDoc
		if err := json.Unmarshal(b, &back); err != nil {
			return err
		}
		t2 := time.Now()
		p.roundTrips = append(p.roundTrips, t1.Sub(t0).Seconds())
		p.cpu = append(p.cpu, t2.Sub(t1).Seconds())
		p.total = append(p.total, t2.Sub(t0).Seconds())
	}
	return nil
}

// seconds is the probe's median time over the run.
func (p *hostProbe) seconds() float64 { return median(p.total) }

// close shuts the echo server down and waits for its goroutine.
func (p *hostProbe) close() error {
	var err error
	if p.conn != nil {
		err = p.conn.Close()
	}
	err = errors.Join(err, p.ln.Close())
	<-p.echo
	return err
}

// normalized are the end-to-end metrics reported at the reference host
// speed, and whether each is a time (scaled down on a slow host) or a rate
// (scaled up).
var normalized = []struct {
	name string
	rate bool
}{
	{"setup_s", false},
	{"estimate_p50_ms", false},
	{"estimate_p95_ms", false},
	{"estimate_p99_ms", false},
	{"estimate_qps", true},
	{"build_elems_per_s", true},
	{"update_p50_ms", false},
	{"update_p99_ms", false},
	{"update_ops_per_s", true},
}

// normalize scales the report's raw times and rates to the reference host
// speed and notes the raw figures and the probe's times.
func normalize(rep *report, p *hostProbe) {
	k := p.seconds()
	slow := math.Pow(k/probeRefSeconds, probeElasticity)
	rep.notes = append(rep.notes, fmt.Sprintf("host probe: n=%d median %.6f s (round trips %.6f s, cpu %.6f s), reference %.6f s",
		len(p.roundTrips), k, median(p.roundTrips), median(p.cpu), probeRefSeconds))
	for _, m := range normalized {
		v, ok := rep.e2e[m.name]
		if !ok {
			continue
		}
		rep.notes = append(rep.notes, fmt.Sprintf("raw.%s %.6g", m.name, v))
		if m.rate {
			rep.e2e[m.name] = v * slow
		} else {
			rep.e2e[m.name] = v / slow
		}
	}
	rep.layer["host.probe_ms"] = 1000 * k
}
