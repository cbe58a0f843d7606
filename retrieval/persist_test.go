package retrieval

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/ir"
)

func searchEqual(t *testing.T, a, b *Index, query string, topN int) {
	t.Helper()
	ctx := context.Background()
	ra, err := a.Search(ctx, query, topN)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Search(ctx, query, topN)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("%q: %d vs %d results", query, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%q result %d: %+v vs %+v", query, i, ra[i], rb[i])
		}
	}
}

func TestSaveLoadRoundTripLSI(t *testing.T) {
	ix := demoLSI(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := loaded.Stats()
	if s.Backend != "lsi" || !s.TextQueries || s.Weighting != "log" || s.Rank != 3 {
		t.Fatalf("loaded stats = %+v", s)
	}
	// The loaded index is self-contained: text queries answer identically
	// with no access to the corpus, and IDs survive.
	searchEqual(t, ix, loaded, "car engine", 4)
	searchEqual(t, ix, loaded, "telescope galaxy", 4)
	res, err := loaded.Search(context.Background(), "automobile", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res[0].ID, "demo-") {
		t.Fatalf("doc IDs lost through save/load: %+v", res[0])
	}
}

func TestSaveLoadRoundTripVSM(t *testing.T) {
	ix, err := Build(DemoCorpus(), WithBackend(BackendVSM), WithWeighting(WeightingTFIDF))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := loaded.Stats()
	if s.Backend != "vsm" || !s.TextQueries || s.Weighting != "tfidf" {
		t.Fatalf("loaded stats = %+v", s)
	}
	searchEqual(t, ix, loaded, "pasta sauce", 0)
	searchEqual(t, ix, loaded, "stars planets", 0)
}

// testdata/index_v1.gob was written by the pre-v2 code (`lsi.Save`) over
// the demo corpus: rank-3 dense-engine LSI, log weighting. It proves the
// acceptance path: a v1-format index saved before the format bump loads
// and serves text queries after it (v1 carries no vocabulary, so the
// text layer comes in via WithTextConfig).
func TestLoadV1GoldenServesTextQueries(t *testing.T) {
	data, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}

	// Without a text config the numeric index loads but text queries are
	// cleanly refused.
	bare, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("v1 index failed to load: %v", err)
	}
	if bare.Stats().TextQueries {
		t.Fatal("v1 stream cannot carry a vocabulary")
	}
	if _, err := bare.Search(context.Background(), "car", 3); !errors.Is(err, ErrNoVocabulary) {
		t.Fatalf("text query on bare v1 index = %v, want ErrNoVocabulary", err)
	}
	if _, err := bare.Query(context.Background(), SearchRequest{Vector: make([]float64, bare.NumTerms()), TopN: 3}); err != nil {
		t.Fatalf("vector query on bare v1 index: %v", err)
	}

	// Reconstruct the build-time vocabulary by rerunning the pipeline the
	// v1 index was built with, and attach it.
	pipe := ir.NewPipeline()
	texts := make([]string, len(DemoCorpus()))
	ids := make([]string, len(DemoCorpus()))
	for i, d := range DemoCorpus() {
		texts[i] = d.Text
		ids[i] = d.ID
	}
	pipe.ProcessAll(texts)
	loaded, err := Load(bytes.NewReader(data), WithTextConfig(TextConfig{
		Vocab:           pipe.Vocab.Terms(),
		Weighting:       WeightingLog,
		RemoveStopwords: true,
		Stemming:        true,
		DocIDs:          ids,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Stats().TextQueries {
		t.Fatal("text config not attached")
	}

	// The migrated v1 index must behave exactly like a fresh build with
	// the same parameters — including the synonymy effect.
	fresh := demoLSI(t)
	searchEqual(t, fresh, loaded, "car engine repair", 4)
	res, err := loaded.Search(context.Background(), "car", 4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, r := range res {
		seen[r.Doc] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("migrated v1 index lost the synonymy effect: %+v", res)
	}

	// Re-save: the index upgrades to the self-contained v2 format.
	var buf bytes.Buffer
	if err := loaded.Save(&buf); err != nil {
		t.Fatal(err)
	}
	upgraded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !upgraded.Stats().TextQueries {
		t.Fatal("re-saved v1 index is not self-contained")
	}
	searchEqual(t, loaded, upgraded, "car", 4)
}

func TestLoadV1TextConfigValidation(t *testing.T) {
	data, err := os.ReadFile("testdata/index_v1.gob")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(bytes.NewReader(data), WithTextConfig(TextConfig{Vocab: []string{"too", "short"}}))
	if err == nil {
		t.Fatal("expected vocabulary-size mismatch error")
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(vsmWire{Version: 7, Backend: "vsm"}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if err == nil {
		t.Fatal("future version should fail to load")
	}
	if !strings.Contains(err.Error(), "version 7") {
		t.Fatalf("error %q does not name the offending version", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not an index")); err == nil {
		t.Fatal("garbage stream should fail to load")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("empty stream should fail to load")
	}
}
