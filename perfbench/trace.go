package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// Span is one timed interval of a traced transaction: the logical
// transaction ("txn"), one attempt of it ("attempt"), a backoff sleep
// ("backoff") or one public call into a layer ("ssidb.get",
// "server.commit_rtt", ...). Parent indexes the enclosing span in the same
// trace, -1 for a root; Txn is shared by every span of one logical
// transaction.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Txn    uint64 `json:"txn"`
	Rows   int    `json:"rows,omitempty"`
}

// tracer is one client's bounded span buffer. It is owned by the client's
// goroutine; only the final merge reads it from elsewhere, after the
// goroutine has exited.
type tracer struct {
	epoch time.Time
	every int // trace every Nth logical transaction
	spans []Span
}

// spansPerClient bounds each client's buffer; a transaction is sampled only
// while txnSpanRoom more spans still fit, so no sampled transaction is cut.
const (
	spansPerClient = 1 << 17
	txnSpanRoom    = 512
)

// newTracer returns a tracer that samples every Nth transaction, or none
// when every < 1.
func newTracer(epoch time.Time, every int) *tracer {
	return &tracer{epoch: epoch, every: every, spans: make([]Span, 0, spansPerClient)}
}

// sample reports whether logical transaction i is traced.
func (t *tracer) sample(i int) bool {
	return t != nil && t.every > 0 && i%t.every == 0 && cap(t.spans)-len(t.spans) >= txnSpanRoom
}

// spanner opens spans under one parent. The zero value traces nothing, so
// untraced transactions pay one nil check per call.
type spanner struct {
	tr     *tracer
	parent int32
	txn    uint64
}

func (s spanner) start(name string) int32 {
	if s.tr == nil || len(s.tr.spans) == cap(s.tr.spans) {
		return -1
	}
	s.tr.spans = append(s.tr.spans, Span{
		Name:   name,
		Start:  int64(time.Since(s.tr.epoch)),
		Parent: s.parent,
		Txn:    s.txn,
	})
	return int32(len(s.tr.spans) - 1)
}

func (s spanner) end(id int32) { s.endRows(id, 0) }

func (s spanner) endRows(id int32, rows int) {
	if id < 0 {
		return
	}
	sp := &s.tr.spans[id]
	sp.End = int64(time.Since(s.tr.epoch))
	sp.Rows = rows
}

// child returns a spanner whose spans nest under span id.
func (s spanner) child(id int32) spanner {
	if id < 0 {
		return spanner{}
	}
	return spanner{tr: s.tr, parent: id, txn: s.txn}
}

// mergeSpans concatenates client buffers into one trace, rebasing parent
// indexes.
func mergeSpans(trs []*tracer) []Span {
	var all []Span
	for _, t := range trs {
		base := int32(len(all))
		for _, sp := range t.spans {
			if sp.Parent >= 0 {
				sp.Parent += base
			}
			all = append(all, sp)
		}
	}
	return all
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its children cover. Children of one parent may overlap, so the
// covered part is the length of the union of their clipped intervals.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int32][]int32)
	for i, sp := range spans {
		if sp.Parent >= 0 {
			kids[sp.Parent] = append(kids[sp.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, sp := range spans {
		self[i] = sp.End - sp.Start - covered(spans, kids[int32(i)], sp.Start, sp.End)
	}
	return self
}

// covered is the length of the union of the child intervals clipped to
// [lo, hi].
func covered(spans []Span, kids []int32, lo, hi int64) int64 {
	type iv struct{ s, e int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		s, e := max(spans[k].Start, lo), min(spans[k].End, hi)
		if e > s {
			ivs = append(ivs, iv{s, e})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
	var total, curS, curE int64
	open := false
	for _, v := range ivs {
		if open && v.s <= curE {
			curE = max(curE, v.e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = v.s, v.e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// spanSummary is a trace reduced to what the per-layer metrics need.
type spanSummary struct {
	dur      map[string][]float64 // µs durations per span name, sorted
	self     map[string]float64   // summed self time per span name, µs
	rows     map[string]int       // rows reported per span name
	txnCount int
}

func summarize(spans []Span) spanSummary {
	s := spanSummary{dur: map[string][]float64{}, self: map[string]float64{}, rows: map[string]int{}}
	self := selfTimes(spans)
	for i, sp := range spans {
		s.dur[sp.Name] = append(s.dur[sp.Name], float64(sp.End-sp.Start)/1e3)
		s.self[sp.Name] += float64(self[i]) / 1e3
		s.rows[sp.Name] += sp.Rows
		if sp.Name == "txn" {
			s.txnCount++
		}
	}
	for _, d := range s.dur {
		sort.Float64s(d)
	}
	return s
}

func (s spanSummary) p(name string, q float64) float64 { return percentile(s.dur[name], q) }

func (s spanSummary) total(name string) float64 {
	var t float64
	for _, d := range s.dur[name] {
		t += d
	}
	return t
}

// writeTrace writes the run record and every span as one JSON document.
func writeTrace(path string, rec runRecord, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	err = enc.Encode(struct {
		Record runRecord `json:"record"`
		Spans  []Span    `json:"spans"`
	}{rec, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return nil
}
