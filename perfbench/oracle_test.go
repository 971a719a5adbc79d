package main

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	ca "cacheautomaton"
)

func TestExactReportsOverlappingAndNested(t *testing.T) {
	sigs := [][]byte{[]byte("aba"), []byte("b"), []byte("abab")}
	got := exactReports(sigs, []byte("ababa"))
	want := []report{{1, 1}, {2, 0}, {3, 1}, {3, 2}, {4, 0}}
	if err := sameReports(want, got); err != nil {
		t.Fatal(err)
	}
}

func TestRegexOracleWindows(t *testing.T) {
	o, err := newRegexOracle([]string{"ab{1,2}", "b"}, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("abbab")
	want := []report{{1, 0}, {1, 1}, {2, 0}, {2, 1}, {4, 0}, {4, 1}}
	if err := sameReports(want, o.reportsOn(in, len(in))); err != nil {
		t.Fatal(err)
	}
	if o.endsAt(in, 3, 0) || o.endsAt(in, 9, 0) || o.endsAt(in, 1, 7) {
		t.Fatal("endsAt accepted a report that does not exist")
	}
}

// editDistance is the textbook DP, used to check fuzzyEnds by brute
// force over every substring.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur := make([]int, len(b)+1)
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev = cur
	}
	return prev[len(b)]
}

func TestFuzzyEndsMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		p := randDNA(r, 3+r.Intn(4))
		in := randDNA(r, 5+r.Intn(20))
		k := r.Intn(2)
		var want []int
		for e := 0; e < len(in); e++ {
			for s := 0; s <= e; s++ {
				if editDistance(p, in[s:e+1]) <= k {
					want = append(want, e)
					break
				}
			}
		}
		got := fuzzyEnds([]byte(p), []byte(in), k)
		if len(got) != len(want) {
			t.Fatalf("p=%q in=%q k=%d: got %v, want %v", p, in, k, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("p=%q in=%q k=%d: got %v, want %v", p, in, k, got, want)
			}
		}
	}
}

func randDNA(r *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = dna[r.Intn(4)]
	}
	return string(b)
}

// TestCheckRejectsCorruptedReports corrupts a correct report set in
// each way a faulty scan could, and expects every oracle to refuse it.
func TestCheckRejectsCorruptedReports(t *testing.T) {
	in := []byte("xxabcxxabcabc--abc")
	sets := []*ruleSet{
		{Name: "exact", Kind: kindExact, Sigs: [][]byte{[]byte("abc"), []byte("cab")}},
		{Name: "regex", Kind: kindRegex, Pats: []string{"ab[a-c]", "c(ab|--)"}, MaxLen: []int{3, 3}},
		{Name: "fuzzy", Kind: kindFuzzy, Pats: []string{"abcab"}, MaxDist: 1},
	}
	for _, rs := range sets {
		o, err := newOracle(rs, len(in))
		if err != nil {
			t.Fatal(err)
		}
		var good []report
		switch rs.Kind {
		case kindRegex:
			good = o.re.reportsOn(in, len(in))
		default:
			good = o.want(in)
		}
		if len(good) < 2 {
			t.Fatalf("%s: want at least two reports, got %v", rs.Name, good)
		}
		if err := o.check(in, good, good[:1]); err != nil {
			t.Fatalf("%s: correct reports refused: %v", rs.Name, err)
		}
		// Duplicates of a correct report are the same report set.
		if err := o.check(in, append(append([]report(nil), good...), good[0]), nil); err != nil {
			t.Fatalf("%s: duplicated report refused: %v", rs.Name, err)
		}
		corrupt := map[string][]report{
			"shifted offset": append([]report{{good[0].Off + 1, good[0].Pat}}, good[1:]...),
			"wrong rule":     append([]report{{good[0].Off, good[0].Pat + 5}}, good[1:]...),
			"missing first":  good[1:],
			"extra":          append(append([]report(nil), good...), report{0, 0}),
		}
		for name, bad := range corrupt {
			if err := o.check(in, bad, nil); err == nil {
				t.Errorf("%s: %s accepted", rs.Name, name)
			}
		}
		if err := o.check(in, good[1:], []report{good[0]}); err == nil {
			t.Errorf("%s: missing planted hit accepted", rs.Name)
		}
	}
}

// TestStreamStraddlingChunks feeds a stream in chunks that cut planted
// matches in two: the stream must report them at their absolute offsets
// and pass the oracle over the concatenation, while one-shot scans of
// the chunks alone lose them.
func TestStreamStraddlingChunks(t *testing.T) {
	rs := &ruleSet{Name: "t", Kind: kindRegex, Pats: []string{"GET /[a-z]{1,4}\\.php", "passwd"}, MaxLen: []int{13, 6}}
	a, err := ca.CompileRegex(rs.Pats, ca.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := []byte("xx GET /ab.php yy passwd zz GET /abcd.php")
	o, err := newOracle(rs, len(in))
	if err != nil {
		t.Fatal(err)
	}
	want := o.re.reportsOn(in, len(in))
	if len(want) != 3 {
		t.Fatalf("oracle found %v, want 3 reports", want)
	}
	ctx := context.Background()
	for _, size := range []int{1, 5, 8, 16} {
		s, err := a.StreamContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var got, pieces []report
		for lo := 0; lo < len(in); lo += size {
			ch := in[lo:min(lo+size, len(in))]
			ms, err := s.FeedContext(ctx, ch)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, toReports(ms)...)
			one, _, err := a.RunContext(ctx, ch)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.check(ch, toReports(one), nil); err != nil {
				t.Fatalf("chunk %q: %v", ch, err)
			}
			for _, r := range toReports(one) {
				pieces = append(pieces, report{Off: r.Off + int64(lo), Pat: r.Pat})
			}
		}
		s.Close()
		if err := o.check(in, got, nil); err != nil {
			t.Fatalf("chunks of %d: %v", size, err)
		}
		if size < 8 && len(pieces) >= len(want) {
			t.Fatalf("chunks of %d: one-shot scans of the chunks found %v, expected them to lose straddling matches", size, pieces)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("got %v %v %v", q1, q2, q3)
	}
}

func TestGeneratorsDeterministicAndPlanted(t *testing.T) {
	gens := map[string]func(int64) *ruleSet{
		"clamav":      func(s int64) *ruleSet { return genClamAV(s, 50, 64<<10, 4<<10) },
		"snort":       func(s int64) *ruleSet { return genSnort(s, 30, 16<<10) },
		"brill":       func(s int64) *ruleSet { return genBrill(s, 30, 16<<10) },
		"levenshtein": func(s int64) *ruleSet { return genLevenshtein(s, 8, 2, 16<<10) },
		"protomata":   func(s int64) *ruleSet { return genProtomata(s, 30, 16<<10) },
		"serve":       func(s int64) *ruleSet { return genServe(s, 12, 16<<10) },
	}
	for name, gen := range gens {
		a, b, c := gen(7), gen(7), gen(8)
		if string(a.Input) != string(b.Input) || strings.Join(a.Pats, "\n") != strings.Join(b.Pats, "\n") || a.Text != b.Text {
			t.Errorf("%s: same seed gave different rule sets or inputs", name)
		}
		if string(a.Input) == string(c.Input) {
			t.Errorf("%s: different seeds gave the same input", name)
		}
		if len(a.Planted) == 0 {
			t.Errorf("%s: nothing planted", name)
		}
		o, err := newOracle(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		var all []report
		if o.complete() {
			all = o.want(a.Input)
		}
		for _, p := range a.Planted {
			switch {
			case a.Kind == kindRegex && !o.re.endsAt(a.Input, p.Off, p.Pat):
				t.Errorf("%s: planted %+v does not match its rule", name, p)
			case a.Kind != kindRegex && containsAll(all, []report{p.report}) != nil:
				t.Errorf("%s: planted %+v not found by the oracle", name, p)
			}
		}
	}
}

func TestClamAVTextIsQuiet(t *testing.T) {
	rs := genClamAV(1, 100, 128<<10, 8<<10)
	covered := make([]bool, len(rs.Input))
	for _, p := range rs.Planted {
		for i := p.Start; i <= p.Off; i++ {
			covered[i] = true
		}
	}
	for i, c := range rs.Input {
		if c >= 0x80 && !covered[i] {
			t.Fatalf("byte %#x at %d outside a planted signature", c, i)
		}
	}
	for i, s := range rs.Sigs {
		if s[0] < 0x80 {
			t.Fatalf("signature %d starts with %#x", i, s[0])
		}
	}
}
