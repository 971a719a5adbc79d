package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strings"
)

// kind selects a rule set's front end and the oracle that checks it.
type kind int

const (
	kindExact kind = iota // ClamAV-style byte signatures: all-occurrences byte search
	kindRegex             // bounded regexes: Go regexp over each report's window
	kindFuzzy             // Levenshtein patterns: edit-distance DP
)

// report is one match as the benchmark sees it: the offset of the
// match's last byte and the rule index.
type report struct {
	Off int64
	Pat int
}

// ruleSet is one generated rule set with the input it is scanned over.
// The program receives only Text/Patterns and Input; everything else is
// the benchmark's own knowledge, used by the oracles.
type ruleSet struct {
	Name    string
	Kind    kind
	Sigs    [][]byte // kindExact: signature bytes, index = report code
	Text    string   // kindExact: the ClamAV database text
	Pats    []string // kindRegex / kindFuzzy: patterns, index = report code
	MaxLen  []int    // kindRegex: longest string each pattern can match
	MaxDist int      // kindFuzzy: edit-distance bound
	Input   []byte
	// Planted holds the hits the generator placed in Input; every one
	// must be reported.
	Planted []plant
}

// plant is one hit the generator placed: the instance spans
// Input[Start:Off+1] and must be reported at Off.
type plant struct {
	Start int64
	report
}

// piece is one element of a generated regex: a literal alternation, or a
// class repeated lo..hi times. chars is the alphabet instances draw from.
type piece struct {
	alts   []string
	class  string
	chars  string
	lo, hi int
}

func lit(s ...string) piece { return piece{alts: s} }

func rep(class, chars string, lo, hi int) piece {
	return piece{class: class, chars: chars, lo: lo, hi: hi}
}

func (p piece) regex() string {
	if p.class == "" {
		q := make([]string, len(p.alts))
		for i, a := range p.alts {
			q[i] = regexp.QuoteMeta(a)
		}
		if len(q) == 1 {
			return q[0]
		}
		return "(" + strings.Join(q, "|") + ")"
	}
	switch {
	case p.lo == 1 && p.hi == 1:
		return p.class
	case p.lo == p.hi:
		return fmt.Sprintf("%s{%d}", p.class, p.lo)
	}
	return fmt.Sprintf("%s{%d,%d}", p.class, p.lo, p.hi)
}

func (p piece) maxLen() int {
	if p.class != "" {
		return p.hi
	}
	n := 0
	for _, a := range p.alts {
		n = max(n, len(a))
	}
	return n
}

func (p piece) sample(r *rand.Rand) string {
	if p.class == "" {
		return p.alts[r.Intn(len(p.alts))]
	}
	n := p.lo + r.Intn(p.hi-p.lo+1)
	b := make([]byte, n)
	for i := range b {
		b[i] = p.chars[r.Intn(len(p.chars))]
	}
	return string(b)
}

// rule is a generated pattern: its pieces render both the regex and
// instances that match it.
type rule []piece

func (ru rule) regex() string {
	var b strings.Builder
	for _, p := range ru {
		b.WriteString(p.regex())
	}
	return b.String()
}

func (ru rule) maxLen() int {
	n := 0
	for _, p := range ru {
		n += p.maxLen()
	}
	return n
}

func (ru rule) sample(r *rand.Rand) string {
	var b strings.Builder
	for _, p := range ru {
		b.WriteString(p.sample(r))
	}
	return b.String()
}

const (
	lower    = "abcdefghijklmnopqrstuvwxyz"
	digits   = "0123456789"
	dna      = "acgt"
	residues = "ACDEFGHIKLMNPQRSTVWY"
)

// word draws a pronounceable lower-case word of n letters.
func word(r *rand.Rand, n int) string {
	const cons, vow = "bcdfghklmnprstvwz", "aeiou"
	b := make([]byte, n)
	for i := range b {
		if i%2 == 0 {
			b[i] = cons[r.Intn(len(cons))]
		} else {
			b[i] = vow[r.Intn(len(vow))]
		}
	}
	return string(b)
}

// shapes returns the generator of a rule set's shape: rule templates,
// lengths and repeat bounds. It does not depend on the seed, so every
// seed yields rule sets of the same size and form, and the seed varies
// only their contents and the inputs; run-to-run spread then measures
// the program, not a different workload.
func shapes(name string) *rand.Rand {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h = (h ^ int64(c)) * 1099511628211
	}
	return rand.New(rand.NewSource(h))
}

// plantEvery writes samples into buf at gaps drawn from [gap/2, 3gap/2),
// recording each as a planted hit. pick returns the rule index and the
// instance to plant.
func plantEvery(r *rand.Rand, buf []byte, gap int, pick func() (int, []byte)) []plant {
	var out []plant
	for pos := gap/2 + r.Intn(gap); ; pos += gap/2 + r.Intn(gap) {
		i, inst := pick()
		if pos+len(inst) > len(buf) {
			break
		}
		copy(buf[pos:], inst)
		out = append(out, plant{Start: int64(pos), report: report{Off: int64(pos + len(inst) - 1), Pat: i}})
	}
	return out
}

// fillText fills buf with lower-case words separated by spaces and the
// occasional sentence break: benign text in which no byte ≥ 0x80 occurs.
func fillText(r *rand.Rand, buf []byte, vocab []string) {
	for i := 0; i < len(buf); {
		w := vocab[r.Intn(len(vocab))]
		i += copy(buf[i:], w)
		if i < len(buf) {
			if r.Intn(12) == 0 {
				buf[i] = '\n'
			} else {
				buf[i] = ' '
			}
			i++
		}
	}
}

func vocabulary(r *rand.Rand, n int) []string {
	v := make([]string, n)
	for i := range v {
		v[i] = word(r, 2+r.Intn(7))
	}
	return v
}

// genClamAV builds a ClamAV-style database of n exact byte signatures and
// a mostly-benign text stream of size bytes. Every signature starts with
// a byte ≥ 0x80, which the text never contains, so the automaton sits at
// its always-active fixed point except near a planted signature (one
// every plantGap bytes on average).
func genClamAV(seed int64, n, size, plantGap int) *ruleSet {
	r, sh := rand.New(rand.NewSource(seed)), shapes("clamav")
	rs := &ruleSet{Name: "clamav", Kind: kindExact}
	seen := map[string]bool{}
	var db strings.Builder
	for len(rs.Sigs) < n {
		sig := make([]byte, 12+sh.Intn(17))
		sig[0] = byte(0x80 + r.Intn(0x80))
		for i := 1; i < len(sig); i++ {
			sig[i] = byte(r.Intn(256))
		}
		if seen[string(sig)] {
			continue
		}
		seen[string(sig)] = true
		fmt.Fprintf(&db, "Bench.Sig%04d:%x\n", len(rs.Sigs), sig)
		rs.Sigs = append(rs.Sigs, sig)
	}
	rs.Text = db.String()
	rs.Input = make([]byte, size)
	fillText(r, rs.Input, vocabulary(r, 2000))
	rs.Planted = plantEvery(r, rs.Input, plantGap, func() (int, []byte) {
		i := r.Intn(len(rs.Sigs))
		return i, rs.Sigs[i]
	})
	return rs
}

// regexSet renders rules into a kindRegex rule set over input, planting
// an instance of a random rule every gap bytes.
func regexSet(r *rand.Rand, name string, rules []rule, input []byte, gap int) *ruleSet {
	rs := &ruleSet{Name: name, Kind: kindRegex, Input: input}
	for _, ru := range rules {
		rs.Pats = append(rs.Pats, ru.regex())
		rs.MaxLen = append(rs.MaxLen, ru.maxLen())
	}
	rs.Planted = plantEvery(r, input, gap, func() (int, []byte) {
		i := r.Intn(len(rules))
		return i, []byte(rules[i].sample(r))
	})
	return rs
}

var (
	httpMethods = []string{"GET", "POST", "HEAD", "PUT"}
	webExts     = []string{"php", "asp", "cgi", "jsp", "pl"}
	attackLits  = []string{"cmd.exe", "/etc/passwd", "union select", "<script>", "../../", "xp_cmdshell",
		"wget http", "/bin/sh", "eval(", "base64_decode", "document.cookie", "onerror=", "%00", "passwd=",
		"select * from", "drop table", "|nc ", ";cat ", "admin.php", "shell.php"}
)

// snortRules draws n Snort-style web/IDS rules: request lines with
// bounded path and parameter classes, and attack literals with bounded
// context.
func snortRules(r, sh *rand.Rand, n int) []rule {
	rules := make([]rule, 0, n)
	for len(rules) < n {
		var ru rule
		switch sh.Intn(3) {
		case 0:
			ru = rule{lit(httpMethods[sh.Intn(len(httpMethods))] + " /" + word(r, 3+sh.Intn(4))),
				rep("[a-z]", lower, 1, 2+sh.Intn(6)), lit("." + webExts[sh.Intn(len(webExts))] + "?" + word(r, 2+sh.Intn(4)) + "="),
				rep("[0-9]", digits, 1, 1+sh.Intn(6))}
		case 1:
			ru = rule{lit(word(r, 3+sh.Intn(3)) + "="), rep("[a-z0-9]", lower+digits, 0, 1+sh.Intn(8)),
				lit(attackLits[sh.Intn(len(attackLits))])}
		default:
			ru = rule{lit(attackLits[sh.Intn(len(attackLits))]), rep("[ a-z]", " "+lower, 1, 2+sh.Intn(10)),
				lit(word(r, 2+sh.Intn(4)))}
		}
		rules = append(rules, ru)
	}
	return rules
}

// httpTraffic fills size bytes with HTTP request heads over a vocabulary.
func httpTraffic(r *rand.Rand, size int) []byte {
	vocab := vocabulary(r, 500)
	var b strings.Builder
	for b.Len() < size {
		fmt.Fprintf(&b, "%s /%s/%s.html?%s=%d HTTP/1.1\r\nHost: %s.example\r\nUser-Agent: %s/%d.%d\r\nAccept: text/html\r\n\r\n",
			httpMethods[r.Intn(len(httpMethods))], vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))],
			vocab[r.Intn(len(vocab))], r.Intn(100000), vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))],
			r.Intn(10), r.Intn(10))
	}
	return []byte(b.String()[:size])
}

func genSnort(seed int64, n, size int) *ruleSet {
	r := rand.New(rand.NewSource(seed))
	return regexSet(r, "snort", snortRules(r, shapes("snort"), n), httpTraffic(r, size), 1024)
}

var (
	brillSuffixes = []string{"ing", "ed", "ly", "ion", "s", "er", "est", "ness", "ment", "able"}
	brillWords    = []string{"the", "a", "an", "of", "to", "in", "and", "is", "was", "that", "for", "on"}
)

// genBrill draws n Brill-tagger-style contextual rules (a word shape
// followed by a neighbouring closed-class word) and English-like text in
// which they fire constantly: high activity, dense reports.
func genBrill(seed int64, n, size int) *ruleSet {
	r, sh := rand.New(rand.NewSource(seed)), shapes("brill")
	pickN := func(from []string, k int) []string {
		idx := r.Perm(len(from))[:k]
		sort.Ints(idx)
		out := make([]string, k)
		for i, j := range idx {
			out[i] = from[j]
		}
		return out
	}
	var rules []rule
	for len(rules) < n {
		shape := rule{rep("[a-z]", lower, 1, 2+sh.Intn(5)), lit(pickN(brillSuffixes, 2+sh.Intn(4))...)}
		next := lit(pickN(brillWords, 2+sh.Intn(5))...)
		if sh.Intn(2) == 0 {
			rules = append(rules, append(append(rule{}, shape...), lit(" "), next))
		} else {
			rules = append(rules, append(rule{next, lit(" ")}, shape...))
		}
	}
	var vocab []string
	for _, w := range vocabulary(r, 600) {
		if r.Intn(3) != 0 {
			w += brillSuffixes[r.Intn(len(brillSuffixes))]
		}
		vocab = append(vocab, w)
	}
	for i := 0; i < 4; i++ {
		vocab = append(vocab, brillWords...)
	}
	input := make([]byte, size)
	fillText(r, input, vocab)
	return regexSet(r, "brill", rules, input, 2048)
}

// genProtomata draws n PROSITE-style motifs over the amino-acid alphabet:
// single residues, residue classes, excluded residues and bounded gaps.
func genProtomata(seed int64, n, size int) *ruleSet {
	r, sh := rand.New(rand.NewSource(seed)), shapes("protomata")
	var rules []rule
	for len(rules) < n {
		var ru rule
		lits := 0
		for k := 6 + sh.Intn(4); k > 0; k-- {
			switch sh.Intn(7) {
			case 0, 1, 2:
				ru = append(ru, lit(string(residues[r.Intn(len(residues))])))
				lits++
			case 3, 4:
				set := []byte(residues)
				r.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
				set = set[:2+sh.Intn(3)]
				sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
				ru = append(ru, rep("["+string(set)+"]", string(set), 1, 1))
			case 5:
				x := residues[r.Intn(len(residues))]
				ru = append(ru, rep("[^"+string(x)+"]", strings.ReplaceAll(residues, string(x), ""), 1, 1))
			default:
				lo := sh.Intn(3)
				ru = append(ru, rep(".", residues, lo, lo+1+sh.Intn(2)))
			}
		}
		first, last := ru[0], ru[len(ru)-1]
		if lits < 3 || first.class != "" && first.lo == 0 || last.class != "" && last.lo == 0 {
			continue // too permissive, or an optional end piece that only duplicates shorter matches
		}
		rules = append(rules, ru)
	}
	input := make([]byte, size)
	for i := range input {
		input[i] = residues[r.Intn(len(residues))]
	}
	return regexSet(r, "protomata", rules, input, 1024)
}

// genLevenshtein draws n DNA patterns of 10–14 bases with edit bound
// maxDist, and a random DNA stream with mutated copies planted in it.
func genLevenshtein(seed int64, n, maxDist, size int) *ruleSet {
	r, sh := rand.New(rand.NewSource(seed)), shapes("levenshtein")
	rs := &ruleSet{Name: "levenshtein", Kind: kindFuzzy, MaxDist: maxDist}
	for len(rs.Pats) < n {
		b := make([]byte, 10+sh.Intn(5))
		for i := range b {
			b[i] = dna[r.Intn(4)]
		}
		rs.Pats = append(rs.Pats, string(b))
	}
	rs.Input = make([]byte, size)
	for i := range rs.Input {
		rs.Input[i] = dna[r.Intn(4)]
	}
	rs.Planted = plantEvery(r, rs.Input, 1024, func() (int, []byte) {
		i := r.Intn(n)
		return i, mutate(r, []byte(rs.Pats[i]), maxDist)
	})
	return rs
}

// mutate applies up to k random edits (substitute, insert, delete) that
// keep the first and last base, so the planted copy still ends where the
// plant says it does.
func mutate(r *rand.Rand, p []byte, k int) []byte {
	out := append([]byte(nil), p...)
	for e := r.Intn(k + 1); e > 0; e-- {
		i := 1 + r.Intn(len(out)-2)
		switch r.Intn(3) {
		case 0:
			out[i] = dna[r.Intn(4)]
		case 1:
			out = append(out[:i], append([]byte{dna[r.Intn(4)]}, out[i:]...)...)
		default:
			out = append(out[:i], out[i+1:]...)
		}
	}
	return out
}

// genServe builds the serving rule set — a dozen Snort-style rules, one
// or two partitions — and the HTTP-like traffic its payloads are cut
// from.
func genServe(seed int64, n, size int) *ruleSet {
	r := rand.New(rand.NewSource(seed))
	return regexSet(r, "serve", snortRules(r, shapes("serve"), n), httpTraffic(r, size), 512)
}
