package main

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
)

// The oracles below know nothing of the program: byte search for exact
// signatures, Go's regexp for bounded regexes, and an edit-distance DP
// for fuzzy patterns. They check what a scan of an input reported, where
// offsets are relative to the start of that input.

// exactReports returns every (end offset, signature) occurrence of sigs
// in input, overlapping occurrences included.
func exactReports(sigs [][]byte, input []byte) []report {
	var out []report
	for i, sig := range sigs {
		for at := 0; ; {
			j := bytes.Index(input[at:], sig)
			if j < 0 {
				break
			}
			out = append(out, report{Off: int64(at + j + len(sig) - 1), Pat: i})
			at += j + 1
		}
	}
	return sortReports(out)
}

// fuzzyEnds returns every offset at which some substring of input ending
// there is within edit distance k of p (Sellers' DP: free start, one
// column per input byte).
func fuzzyEnds(p, input []byte, k int) []int {
	m := len(p)
	col := make([]int, m+1)
	for i := range col {
		col[i] = i
	}
	var out []int
	for j, c := range input {
		diag := col[0] // D[0][j-1] = 0
		for i := 1; i <= m; i++ {
			cost := 1
			if p[i-1] == c {
				cost = 0
			}
			next := min(col[i]+1, col[i-1]+1, diag+cost)
			diag, col[i] = col[i], next
		}
		if col[m] <= k {
			out = append(out, j)
		}
	}
	return out
}

func fuzzyReports(pats []string, k int, input []byte) []report {
	var out []report
	for i, p := range pats {
		for _, e := range fuzzyEnds([]byte(p), input, k) {
			out = append(out, report{Off: int64(e), Pat: i})
		}
	}
	return sortReports(out)
}

// regexOracle decides whether pattern i matches some substring of the
// input that ends at a given offset, by running (?s)(p)$ over the window
// of the pattern's longest match that ends there.
type regexOracle struct {
	res    []*regexp.Regexp
	maxLen []int
}

func newRegexOracle(pats []string, maxLen []int) (*regexOracle, error) {
	o := &regexOracle{maxLen: maxLen}
	for i, p := range pats {
		re, err := regexp.Compile("(?s)(" + p + ")$")
		if err != nil {
			return nil, fmt.Errorf("oracle: pattern %d: %w", i, err)
		}
		o.res = append(o.res, re)
	}
	return o, nil
}

func (o *regexOracle) endsAt(input []byte, off int64, pat int) bool {
	if pat < 0 || pat >= len(o.res) || off < 0 || off >= int64(len(input)) {
		return false
	}
	lo := max(0, off+1-int64(o.maxLen[pat]))
	return o.res[pat].Match(input[lo : off+1])
}

// reportsOn returns the full report set over input[:n].
func (o *regexOracle) reportsOn(input []byte, n int) []report {
	var out []report
	for e := 0; e < n && e < len(input); e++ {
		for i := range o.res {
			if o.endsAt(input, int64(e), i) {
				out = append(out, report{Off: int64(e), Pat: i})
			}
		}
	}
	return out
}

// oracle checks the reports of scans over one rule set's inputs.
type oracle struct {
	rs *ruleSet
	re *regexOracle
	// prefix is how many leading bytes of a checked input the regex
	// oracle compares exactly; beyond it each report is checked alone.
	prefix int
}

func newOracle(rs *ruleSet, prefix int) (*oracle, error) {
	o := &oracle{rs: rs, prefix: prefix}
	if rs.Kind == kindRegex {
		re, err := newRegexOracle(rs.Pats, rs.MaxLen)
		if err != nil {
			return nil, err
		}
		o.re = re
	}
	return o, nil
}

// complete reports whether want returns the full report set of input.
func (o *oracle) complete() bool { return o.rs.Kind != kindRegex }

// want returns the full report set of input (exact and fuzzy sets only).
func (o *oracle) want(input []byte) []report {
	if o.rs.Kind == kindExact {
		return exactReports(o.rs.Sigs, input)
	}
	return fuzzyReports(o.rs.Pats, o.rs.MaxDist, input)
}

// check verifies got, the reports of one scan of input, against the
// oracle: the exact report set where the oracle is complete; otherwise
// every report on its own, the exact set over the prefix, and every
// planted hit (planted offsets relative to input).
func (o *oracle) check(input []byte, got []report, planted []report) error {
	got = dedupe(got)
	if o.complete() {
		if err := sameReports(o.want(input), got); err != nil {
			return err
		}
	} else {
		for _, r := range got {
			if !o.re.endsAt(input, r.Off, r.Pat) {
				return fmt.Errorf("report %+v: pattern %d does not match a window ending there", r, r.Pat)
			}
		}
		n := min(o.prefix, len(input))
		var head []report
		for _, r := range got {
			if r.Off < int64(n) {
				head = append(head, r)
			}
		}
		if err := sameReports(o.re.reportsOn(input, n), head); err != nil {
			return fmt.Errorf("first %d bytes: %w", n, err)
		}
	}
	return containsAll(got, planted)
}

func sortReports(rs []report) []report {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Off != rs[j].Off {
			return rs[i].Off < rs[j].Off
		}
		return rs[i].Pat < rs[j].Pat
	})
	return rs
}

// dedupe returns the report set of rs: sorted, each (offset, rule) once.
func dedupe(rs []report) []report {
	rs = sortReports(append([]report(nil), rs...))
	out := rs[:0]
	for i, r := range rs {
		if i == 0 || r != rs[i-1] {
			out = append(out, r)
		}
	}
	return out
}

// sameReports compares two report sets, naming the first difference.
func sameReports(want, got []report) error {
	want, got = dedupe(want), dedupe(got)
	for i := 0; i < len(want) || i < len(got); i++ {
		switch {
		case i >= len(got):
			return fmt.Errorf("missing report %+v (%d wanted, %d reported)", want[i], len(want), len(got))
		case i >= len(want):
			return fmt.Errorf("unexpected report %+v (%d wanted, %d reported)", got[i], len(want), len(got))
		case want[i] != got[i]:
			return fmt.Errorf("report %d: got %+v, want %+v (%d wanted, %d reported)", i, got[i], want[i], len(want), len(got))
		}
	}
	return nil
}

// containsAll checks that every planted hit is among got (a sorted set).
func containsAll(got, planted []report) error {
	for _, p := range planted {
		i := sort.Search(len(got), func(i int) bool {
			return got[i].Off > p.Off || got[i].Off == p.Off && got[i].Pat >= p.Pat
		})
		if i == len(got) || got[i] != p {
			return fmt.Errorf("planted hit %+v not reported", p)
		}
	}
	return nil
}

// plantedIn returns the planted hits wholly inside input[lo:hi], with
// offsets relative to lo.
func plantedIn(planted []plant, lo, hi int64) []report {
	var out []report
	for _, p := range planted {
		if p.Start >= lo && p.Off < hi {
			out = append(out, report{Off: p.Off - lo, Pat: p.Pat})
		}
	}
	return out
}
