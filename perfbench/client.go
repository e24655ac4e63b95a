package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"time"
)

// client is the benchmark's single closed-loop client: one keep-alive
// connection, the next request sent only after the previous response's
// last byte.
type client struct {
	hc    *http.Client
	base  string
	dials atomic.Int64
	buf   []byte
}

func newClient(base string) *client {
	c := &client{base: base, buf: make([]byte, 64<<10)}
	d := &net.Dialer{}
	c.hc = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is what the client keeps of one request: its timings,
// relative to the send, the body digest, and the body itself when asked.
type response struct {
	status  int
	start   time.Time
	sent    time.Duration // request written (traced passes only)
	headers time.Duration // response headers parsed
	first   time.Duration // first record after the header record (0: none)
	last    time.Duration // last byte read
	digest  [32]byte
	body    []byte
	id      string // X-Request-ID echoed by the server
}

// do POSTs one request (every endpoint a workload uses is a POST; /query
// on a dataset takes an empty body) and reads the response to its last
// byte. keep retains the body; id, when set, is sent as X-Request-ID and
// the send time is recorded with httptrace.
func (c *client) do(r request, keep bool, id string) (response, error) {
	req, err := http.NewRequest("POST", c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return response{}, err
	}
	var res response
	if id != "" {
		req.Header.Set("X-Request-ID", id)
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest: func(httptrace.WroteRequestInfo) { res.sent = time.Since(res.start) },
		}))
	}
	res.start = time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	res.headers = time.Since(res.start)
	res.status = resp.StatusCode
	res.id = resp.Header.Get("X-Request-ID")
	h := sha256.New()
	var kept bytes.Buffer
	// The first record is the second NDJSON line: /derive opens with a
	// schema record and /query with a query record.
	read, headerEnd := 0, -1
	for {
		n, err := resp.Body.Read(c.buf)
		if n > 0 {
			chunk := c.buf[:n]
			h.Write(chunk)
			if keep {
				kept.Write(chunk)
			}
			if headerEnd < 0 {
				if i := bytes.IndexByte(chunk, '\n'); i >= 0 {
					headerEnd = read + i + 1
				}
			}
			read += n
			if res.first == 0 && headerEnd >= 0 && read > headerEnd {
				res.first = time.Since(res.start)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, fmt.Errorf("reading %s: %w", r.path, err)
		}
	}
	res.last = time.Since(res.start)
	h.Sum(res.digest[:0])
	if keep {
		res.body = kept.Bytes()
	}
	return res, nil
}
