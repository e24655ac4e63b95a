package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval of the traced run. Client spans share their
// request's X-Request-ID as trace; the in-process replay's spans use the
// trace "inproc". Times are nanoseconds since the traced pass began (the
// in-process replay runs after it).
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Busy is the summed time of the calls a span aggregates (encode
	// calls inside a reference derivation); Count is their number.
	Busy  int64 `json:"busy_ns,omitempty"`
	Count int   `json:"count,omitempty"`
}

// clientSpans turns the traced pass's per-request timings into spans:
// the request, and inside it send, headers, first record and last byte.
func clientSpans(w *workload, t *pass) []span {
	var out []span
	for i, resp := range t.resps {
		id, parent := t.ids[i], "client."+w.seq[i].kind
		at := resp.start.Sub(t.start).Nanoseconds()
		off := func(d time.Duration) int64 { return at + d.Nanoseconds() }
		out = append(out,
			span{Trace: id, Name: parent, Start: at, End: off(resp.last)},
			span{Trace: id, Name: "send", Parent: parent, Start: at, End: off(resp.sent)},
			span{Trace: id, Name: "headers", Parent: parent, Start: off(resp.sent), End: off(resp.headers)},
		)
		body := resp.headers
		if resp.first > 0 {
			out = append(out, span{Trace: id, Name: "first_record", Parent: parent, Start: off(resp.headers), End: off(resp.first)})
			body = resp.first
		}
		out = append(out, span{Trace: id, Name: "last_byte", Parent: parent, Start: off(body), End: off(resp.last)})
	}
	return out
}

// writeSpans writes every span of the traced run, kept in memory until
// now, as one JSON array.
func writeSpans(path string, w *workload, t *pass, lt *layerTimes) error {
	spans := append(clientSpans(w, t), lt.spans...)
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
