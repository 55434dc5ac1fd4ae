package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"owl/internal/obs"
)

// selfRow aggregates the spans of one name.
type selfRow struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes returns, per span name, the summed duration and self time of
// the given spans. A span's self time is its duration minus the part of
// its interval covered by its children, so overlapping children (runs on
// parallel workers) are counted once.
func selfTimes(spans []obs.SpanRecord) []selfRow {
	children := make(map[uint64][]*obs.SpanRecord)
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += dur
		r.self += dur - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how much of parent's interval the union of the
// children's intervals covers.
func covered(parent *obs.SpanRecord, kids []*obs.SpanRecord) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for _, v := range ivs {
		lo := max(v.lo, end)
		if v.hi > lo {
			total += v.hi - lo
		}
		end = max(end, v.hi)
	}
	return total
}

// printSelfTimes writes the per-layer self-time table. The rows under
// bench.detect account for the detections' time; what no child span
// covers shows as the self time of bench.detect and of the program's
// detect span.
func printSelfTimes(w io.Writer, spans []obs.SpanRecord) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(w, "%-22s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range selfTimes(spans) {
		fmt.Fprintf(w, "%-22s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}

	// Detection accounting: the self times of every span under
	// bench.detect sum to the detections' busy time, which exceeds their
	// wall time by the overlap of the recording workers.
	byID := make(map[uint64]*obs.SpanRecord, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var inDetect []obs.SpanRecord
	var wall, residual time.Duration
	for i := range spans {
		for a := &spans[i]; a != nil; a = byID[a.Parent] {
			if a.Name == "bench.detect" {
				inDetect = append(inDetect, spans[i])
				break
			}
		}
		if spans[i].Name == "bench.detect" {
			wall += spans[i].End - spans[i].Start
		}
	}
	var busy time.Duration
	for _, r := range selfTimes(inDetect) {
		busy += r.self
		if r.name == "bench.detect" || r.name == "detect" {
			residual += r.self
		}
	}
	if wall > 0 {
		fmt.Fprintf(w, "detections: wall %.3f ms, busy %.3f ms (%.2fx), residual self time of bench.detect+detect %.3f ms\n",
			ms(wall), ms(busy), float64(busy)/float64(wall), ms(residual))
	}
}
