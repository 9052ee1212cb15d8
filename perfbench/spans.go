package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the call. Parent is the enclosing span's id, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps every span of a traced run in memory; it is written out once,
// when the benchmark ends, so recording costs one append per span. A nil
// *spanLog records nothing. Not safe for concurrent use: every layer call the
// benchmark times happens on its one driving goroutine.
type spanLog struct {
	spans []span
}

// spanBudget bounds the spans a run keeps: a traced pass is logged only
// while the log holds fewer, so the log holds whole passes and stays small.
const spanBudget = 200_000

// forPass returns the log for a traced pass to record into, or nil once the
// log is over budget.
func (l *spanLog) forPass() *spanLog {
	if l == nil || len(l.spans) >= spanBudget {
		return nil
	}
	return l
}

// epoch anchors clock; span times are nanoseconds since process start.
var epoch = time.Now()

// clock reads the monotonic clock in nanoseconds since epoch.
func clock() int64 { return int64(time.Since(epoch)) }

// begin opens a span and returns its id; close it with end.
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, Start: clock()})
	return len(l.spans) - 1
}

// end closes the span id returned by begin.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	l.spans[id].End = clock()
}

// add records an already-timed span; start and end are clock readings.
func (l *spanLog) add(name string, parent int, start, end int64) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, Start: start, End: end})
}

// layerTime is one span name's total and self time across the log.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes aggregates the log by span name. A span's self time is its
// duration minus the durations of its direct children, so the self times of
// a root and all its descendants add up to the root's duration.
func (l *spanLog) selfTimes() []layerTime {
	if l == nil {
		return nil
	}
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	idx := map[string]int{}
	var out []layerTime
	for i, s := range l.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, layerTime{Name: s.Name})
		}
		out[k].Count++
		out[k].Total += time.Duration(s.End - s.Start)
		out[k].Self += time.Duration(s.End - s.Start - child[i])
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Self > out[b].Self })
	return out
}

// printSelfTimes writes the per-layer self-time table.
func (l *spanLog) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "%-18s %10s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, lt := range l.selfTimes() {
		fmt.Fprintf(w, "%-18s %10d %12.6f %12.6f\n", lt.Name, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
	}
}

// write stores the log as JSON lines, one span per line, in path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
