package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/corpus"
	"repro/retrieval"
)

// The shared inputs. The corpus has the shape the ann-smoke gate uses
// (128 topics x 800 documents from the paper's pure ε-separable model),
// so figures here compare with that gate. The corpus seed is fixed:
// every run serves the same 102,400 documents, and --seed varies only
// the traffic, which keeps set-up time comparable between runs.
const (
	numTopics     = 128
	docsPerTopic  = 800
	termsPerTopic = 25
	epsilon       = 0.1
	minDocLen     = 50
	maxDocLen     = 100
	corpusSeed    = 1

	rank = 32
	topN = 10

	minQueryLen = 4
	maxQueryLen = 12
)

// newModel returns the corpus model every workload samples from.
func newModel() (*corpus.Model, error) {
	return corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: numTopics, TermsPerTopic: termsPerTopic,
		Epsilon: epsilon, MinLen: minDocLen, MaxLen: maxDocLen,
	})
}

// sampleDocs draws n documents from the model with the given seed,
// dealing topics round-robin from the first, and renders them as text
// whose tokens the index pipeline keeps one to one.
func sampleDocs(m *corpus.Model, n int, seed int64, idPrefix string) ([]retrieval.Document, error) {
	m.Sampler = &corpus.RoundRobinSampler{NumTopics: numTopics, MinLen: minDocLen, MaxLen: maxDocLen}
	c, err := corpus.Generate(m, n, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	docs := make([]retrieval.Document, len(c.Docs))
	var b strings.Builder
	for i := range c.Docs {
		d := &c.Docs[i]
		b.Reset()
		for j, t := range d.Terms {
			tok := termToken(t)
			for k := 0; k < d.Counts[j]; k++ {
				b.WriteString(tok)
				b.WriteByte(' ')
			}
		}
		docs[i] = retrieval.Document{ID: fmt.Sprintf("%s%06d", idPrefix, i), Text: b.String()}
	}
	return docs, nil
}

// termToken renders term ID t as a letter-only token ("x" plus its
// decimal digits mapped to a-j): the tokenizer splits on digits, so a
// bare number would not survive it.
func termToken(t int) string {
	const letters = "abcdefghij"
	s := strconv.Itoa(t)
	b := make([]byte, 1, len(s)+1)
	b[0] = 'x'
	for i := 0; i < len(s); i++ {
		b = append(b, letters[s[i]-'0'])
	}
	return string(b)
}

// queryGen draws queries of minQueryLen to maxQueryLen tokens, all from
// one topic of the model, the topic itself drawn uniformly.
type queryGen struct {
	m   *corpus.Model
	rng *rand.Rand
}

func newQueryGen(m *corpus.Model, seed int64) *queryGen {
	return &queryGen{m: m, rng: rand.New(rand.NewSource(seed))}
}

// next returns a query text and its key: the sorted multiset of its
// terms. The server's cache normalizes queries the same way, so two
// queries with one key are the same query to it.
func (g *queryGen) next() (text, key string) {
	topic := g.m.Topics[g.rng.Intn(len(g.m.Topics))]
	n := minQueryLen + g.rng.Intn(maxQueryLen-minQueryLen+1)
	terms := make([]int, n)
	toks := make([]string, n)
	for i := range terms {
		terms[i] = topic.Sample(g.rng)
		toks[i] = termToken(terms[i])
	}
	sort.Ints(terms)
	var kb strings.Builder
	for _, t := range terms {
		kb.WriteString(strconv.Itoa(t))
		kb.WriteByte(',')
	}
	return strings.Join(toks, " "), kb.String()
}

// uniqueQueries returns n queries no two of which share a key.
func (g *queryGen) uniqueQueries(n int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		text, key := g.next()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, text)
	}
	return out
}

// zipfSequence returns n draws from Zipf(s) over ranks 0..pool-1.
func zipfSequence(seed int64, s float64, pool, n int) []int {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), s, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
