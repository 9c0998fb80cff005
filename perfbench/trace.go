package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"htapxplain/internal/exec"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent indexes the enclosing span in the same recorder (-1 for a root).
type span struct {
	Name   string
	Attr   string // route or outcome detail, e.g. "TP" on an execute span
	Req    int64
	Parent int32
	Start  int64 // ns since the run's time base
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps one goroutine's spans in memory. A recorder that is off
// records nothing and every call is a single branch.
type recorder struct {
	on    bool
	base  time.Time
	spans []span
}

// begin opens a span and returns its index, or -1 when recording is off.
func (r *recorder) begin(name string, req int64, parent int32) int32 {
	if !r.on {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Req: req, Parent: parent, Start: int64(time.Since(r.base))})
	return int32(len(r.spans) - 1)
}

// end closes span id (a no-op for -1).
func (r *recorder) end(id int32) {
	if id >= 0 {
		r.spans[id].End = int64(time.Since(r.base))
	}
}

// endAttr closes span id and tags it.
func (r *recorder) endAttr(id int32, attr string) {
	if id >= 0 {
		r.spans[id].Attr = attr
		r.spans[id].End = int64(time.Since(r.base))
	}
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its child spans (overlapping children count once; a child's
// time outside its parent's interval is ignored).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.Start, s.End, kids[int32(i)])
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// opSelfUS adds each operator's self time in a profile tree (its time
// minus its children's) to acc under the operator's class.
func opSelfUS(op *exec.OpStats, acc map[string]float64) {
	self := op.TimeUS
	for _, c := range op.Children {
		self -= c.TimeUS
		opSelfUS(c, acc)
	}
	if self < 0 {
		self = 0
	}
	acc[opClass(op.Name)] += float64(self)
}

// opClass buckets an EXPLAIN ANALYZE operator name into the classes the
// per-layer metrics report.
func opClass(name string) string {
	switch {
	case strings.Contains(name, "Scan"):
		return "scan"
	case name == "Inner hash join":
		return "hashjoin"
	case strings.Contains(name, "join"):
		return "nljoin"
	case name == "Aggregate":
		return "agg"
	case name == "Sort" || name == "Top N":
		return "sort"
	}
	return "other"
}

// writeSpans writes every recorder's spans as JSON lines, one span per
// line with its self time, parents renumbered into one id space.
func writeSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int64  `json:"id"`
		Parent int64  `json:"parent"`
		Req    int64  `json:"req"`
		Name   string `json:"name"`
		Attr   string `json:"attr,omitempty"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
		Self   int64  `json:"self_ns"`
	}
	var off int64
	for _, r := range recs {
		self := selfTimes(r.spans)
		for i, s := range r.spans {
			parent := int64(-1)
			if s.Parent >= 0 {
				parent = off + int64(s.Parent)
			}
			if err := enc.Encode(line{off + int64(i), parent, s.Req, s.Name, s.Attr, s.Start, s.dur(), self[i]}); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
		off += int64(len(r.spans))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
