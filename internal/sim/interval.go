package sim

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// DumpInterval writes one gem5-format statistics block containing the
// counter *deltas* since the previous DumpInterval call (or since the
// beginning of the run for the first call), then advances the interval
// baseline — the à-la-`m5 dumpstats` periodic dump. Appending each block
// to one file reproduces gem5's multi-block stats.txt; the per-block
// deltas of any counter sum to its end-of-run total when a final
// DumpInterval is issued at the end of the run.
//
// Every counter that ever moved appears in every block (zero deltas
// included) so downstream tooling sees a rectangular table. Histograms
// are cumulative-state stats and are excluded from interval blocks; use
// WriteStatsFile for their end-of-run rendering.
func (s *Stats) DumpInterval(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, beginMarker); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%-*s %20d                       # (Unspecified)\n",
		NameColWidth, "interval.index", s.intervals+1); err != nil {
		return err
	}
	next := make(map[string]uint64, len(s.counters))
	for _, e := range s.stats {
		if e.c == nil {
			continue
		}
		next[e.c.name] = e.c.v
		delta := e.c.v - s.intervalSnap[e.c.name]
		if _, err := fmt.Fprintf(bw, "%-*s %20d                       # (Unspecified)\n",
			NameColWidth, e.c.name, delta); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(bw, endMarker); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Advance the interval state only once the block is fully written, so
	// a failed dump can be retried without skipping an index or losing
	// the deltas it would have covered.
	s.intervals++
	s.intervalSnap = next
	return nil
}

// IntervalCount reports how many interval blocks have been dumped.
func (s *Stats) IntervalCount() int { return s.intervals }

// ParseStatsBlocks reads a multi-block stats file (as produced by
// repeated DumpInterval calls, or by gem5's periodic stat dumps) and
// returns one counter map per Begin/End block, in file order.
// Non-integer stats are skipped, as in ParseStatsFile.
func ParseStatsBlocks(r io.Reader) ([]map[string]uint64, error) {
	var blocks []map[string]uint64
	var cur map[string]uint64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
			continue
		case strings.HasPrefix(line, "---------- Begin"):
			cur = make(map[string]uint64)
			continue
		case strings.HasPrefix(line, "---------- End"):
			if cur != nil {
				blocks = append(blocks, cur)
				cur = nil
			}
			continue
		}
		if cur == nil {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("sim: stats line %d malformed: %q", lineNo, line)
		}
		v, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			continue // float stat; skip like ParseStatsFile
		}
		cur[fields[0]] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return blocks, nil
}
