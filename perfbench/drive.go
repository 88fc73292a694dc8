package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// outcome counts what happened to the requests of one phase.
type outcome struct {
	attempted int
	transport int // the HTTP call failed
	status4xx int
	status5xx int
	wrong     int // a 200 whose answer differs from the direct call
	firstErr  string
}

func (o *outcome) failed() int { return o.transport + o.status4xx + o.status5xx + o.wrong }

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.transport += p.transport
	o.status4xx += p.status4xx
	o.status5xx += p.status5xx
	o.wrong += p.wrong
	o.note(p.firstErr)
}

// phase is the measurement of one closed-loop pass over the timed requests.
type phase struct {
	outcome
	latNs      []int64   // per timed request, send to full body read
	roundRPS   []float64 // completed requests per second of each round
	roundCPUUs []float64 // process CPU µs per request of each round
	roundP99Us []float64 // 99th-percentile latency of each round
	allocBytes uint64    // Go heap bytes allocated during the timed requests
	gcCycles   uint32
	gcPauseNs  uint64
}

// client speaks HTTP/1.1 over one kept-alive loopback connection and checks
// every answer. Once its buffers have grown it allocates nothing per
// request, so the process's allocations and most of its CPU are the
// server's and the kernel's, not the load generator's.
type client struct {
	addr string
	in   *inputs
	conn net.Conn
	br   *bufio.Reader
	req  []byte // the request being sent
	body []byte // the last response body
}

func newClient(ep *endpoint, in *inputs) *client {
	return &client{addr: ep.addr, in: in}
}

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// roundTrip writes c.req and reads the response into c.body. After a
// failure the connection is dropped and the next call dials afresh.
func (c *client) roundTrip() (int, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	status, err := c.exchange()
	if err != nil {
		c.close()
	}
	return status, err
}

func (c *client) exchange() (int, error) {
	if _, err := c.conn.Write(c.req); err != nil {
		return 0, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	status, ok := atoi(line[9:12], 10)
	if !ok {
		return 0, fmt.Errorf("bad status line %q", line)
	}
	length, chunked := -1, false
	for {
		if line, err = c.br.ReadSlice('\n'); err != nil {
			return 0, err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := headerValue(line, "Content-Length"); ok {
			if length, ok = atoi(v, 10); !ok {
				return 0, fmt.Errorf("bad header %q", line)
			}
		} else if v, ok := headerValue(line, "Transfer-Encoding"); ok {
			chunked = bytes.Equal(v, []byte("chunked"))
		}
	}
	c.body = c.body[:0]
	switch {
	case chunked:
		for {
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, err
			}
			n, ok := atoi(bytes.TrimSpace(line), 16)
			if !ok {
				return 0, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				break
			}
			if err := c.readBody(n + 2); err != nil { // the chunk and its CRLF
				return 0, err
			}
			c.body = c.body[:len(c.body)-2]
		}
		for { // trailers up to the closing blank line
			if line, err = c.br.ReadSlice('\n'); err != nil {
				return 0, err
			}
			if len(line) <= 2 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("response has neither a length nor chunks")
	}
	return status, nil
}

// readBody appends the next n bytes of the connection to c.body.
func (c *client) readBody(n int) error {
	old := len(c.body)
	c.body = append(c.body, make([]byte, n)...)
	_, err := io.ReadFull(c.br, c.body[old:])
	return err
}

// headerValue returns the value of a header line if it names the header.
func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) <= len(name) || line[len(name)] != ':' || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name)+1:]), true
}

// atoi parses an unsigned number in base 10 or 16 without allocating.
func atoi(b []byte, base int) (int, bool) {
	if len(b) == 0 {
		return 0, false
	}
	n := 0
	for _, ch := range b {
		var d int
		switch {
		case ch >= '0' && ch <= '9':
			d = int(ch - '0')
		case base == 16 && ch >= 'a' && ch <= 'f':
			d = int(ch-'a') + 10
		case base == 16 && ch >= 'A' && ch <= 'F':
			d = int(ch-'A') + 10
		default:
			return 0, false
		}
		n = n*base + d
	}
	return n, true
}

// get sends a GET for target and returns the status; the body is in c.body.
func (c *client) get(target string) (int, error) {
	c.req = appendHeaders(append(append(c.req[:0], "GET "...), target...), nil, -1)
	return c.roundTrip()
}

// send performs one request and returns its latency, from the first byte
// written to the last body byte read. Failures and wrong answers are
// counted in o.
func (c *client) send(r *request, reqID int32, tr *tracer, parent int32, o *outcome) time.Duration {
	traceID := int32(-1)
	if tr != nil {
		traceID = reqID
	}
	c.req = r.appendHTTP(c.req[:0], c.in, traceID)
	sp := tr.begin("transport.http", parent, reqID)
	t0 := time.Now()
	status, err := c.roundTrip()
	lat := time.Since(t0)
	tr.end(sp)
	o.attempted++
	switch {
	case err != nil:
		o.transport++
		o.note(err.Error())
	case status >= 500:
		o.status5xx++
		o.note(fmt.Sprintf("%d: %s", status, c.body))
	case status >= 400:
		o.status4xx++
		o.note(fmt.Sprintf("%d: %s", status, c.body))
	default:
		if bodyDigest(r.kind, c.body) != r.want {
			o.wrong++
			o.note(fmt.Sprintf("%s request %d answered differently from the direct call: %.200s", kindNames[r.kind], reqID, c.body))
		}
	}
	return lat
}

func (o *outcome) note(msg string) {
	if o.firstErr == "" {
		o.firstErr = msg
	}
}

// warm sends requests sequentially on one client, untimed.
func warm(ep *endpoint, in *inputs, reqs []request) outcome {
	var o outcome
	c := newClient(ep, in)
	defer c.close()
	for i := range reqs {
		c.send(&reqs[i], -1, nil, -1, &o)
	}
	return o
}

// drive sends the timed requests from one closed-loop client, in `rounds`
// rounds, recording each latency in lat.
func drive(ep *endpoint, in *inputs, lat []int64, rounds int, tr *tracer) phase {
	reqs := in.timed
	// Everything the loop appends to is sized here, so the heap figures of
	// the window below count only the served requests.
	ph := phase{latNs: lat, roundRPS: make([]float64, 0, rounds), roundCPUUs: make([]float64, 0, rounds)}
	c := newClient(ep, in)
	defer c.close()
	tr.reserve(1+2*len(reqs), len(reqs)) // pass.http, then transport.http and server.handler per request
	root := tr.begin("pass.http", -1, -1)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for r := 0; r < rounds; r++ {
		lo, hi := r*len(reqs)/rounds, (r+1)*len(reqs)/rounds
		cpu0 := cpuTime()
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			lat[i] = int64(c.send(&reqs[i], int32(i), tr, root, &ph.outcome))
		}
		wall := time.Since(t0)
		cpu := cpuTime() - cpu0
		ph.roundRPS = append(ph.roundRPS, float64(hi-lo)/wall.Seconds())
		ph.roundCPUUs = append(ph.roundCPUUs, float64(cpu.Microseconds())/float64(hi-lo))
	}
	runtime.ReadMemStats(&ms1)
	tr.end(root)
	for r := 0; r < rounds; r++ {
		lo, hi := r*len(reqs)/rounds, (r+1)*len(reqs)/rounds
		ph.roundP99Us = append(ph.roundP99Us, quantile(durationsUs(lat[lo:hi]), 0.99))
	}
	ph.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.gcCycles = ms1.NumGC - ms0.NumGC
	ph.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	return ph
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// bodyDigest folds the numbers of a 200 answer into the digest the direct
// call produced (see callCore): the distance of a query, the distances of
// a batch or matrix, and the coordinates then the distance of a path. Keys
// are found by name, so added response fields do not disturb the check;
// a missing key folds nothing and so mismatches.
func bodyDigest(k reqKind, body []byte) uint64 {
	h := newAnswerHash()
	switch k {
	case kindQuery:
		foldNumbers(&h, body, `"distance":`)
	case kindBatch, kindMatrix:
		if bytes.Contains(body, []byte(`"errors":`)) {
			return 0
		}
		foldNumbers(&h, body, `"distances":`)
	case kindPath:
		foldNumbers(&h, body, `"coordinates":`)
		foldNumbers(&h, body, `"distance":`)
	}
	return h.sum()
}

// foldNumbers adds every number of the JSON value after the first
// occurrence of key (a number, or arrays of numbers nested to any depth).
func foldNumbers(h *answerHash, body []byte, key string) {
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return
	}
	i += len(key)
	depth := 0
	for i < len(body) {
		switch ch := body[i]; {
		case ch == '[':
			depth++
			i++
		case ch == ']':
			depth--
			i++
			if depth <= 0 {
				return
			}
		case ch == ',' || ch == ' ':
			i++
			if depth == 0 && ch == ',' {
				return
			}
		case ch == '-' || (ch >= '0' && ch <= '9'):
			j := i
			for j < len(body) && isNumberByte(body[j]) {
				j++
			}
			f, err := strconv.ParseFloat(string(body[i:j]), 64)
			if err != nil {
				h.add(-1)
				return
			}
			h.add(f)
			i = j
			if depth == 0 {
				return
			}
		default:
			return
		}
	}
}

func isNumberByte(b byte) bool {
	return (b >= '0' && b <= '9') || b == '.' || b == '-' || b == '+' || b == 'e' || b == 'E'
}
