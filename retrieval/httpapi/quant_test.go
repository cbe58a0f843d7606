package httpapi

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/retrieval"
)

// quantIndex builds a demo index carrying the int8 tier with a small
// default rerank over-fetch, so the default search runs two-stage.
func quantIndex(t *testing.T) *retrieval.Index {
	t.Helper()
	ix, err := retrieval.Build(retrieval.DemoCorpus(),
		retrieval.WithRank(3), retrieval.WithEngine(retrieval.EngineDense),
		retrieval.WithQuantized(4))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestStatsAndMetricsQuantBlock(t *testing.T) {
	h := NewHandler(quantIndex(t), Options{})

	stats := do(t, h, "GET", "/v1/stats", "")
	if stats.Code != http.StatusOK {
		t.Fatalf("stats: %d", stats.Code)
	}
	var st struct {
		Quant *retrieval.QuantStats `json:"quant"`
	}
	if err := json.Unmarshal(stats.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Quant == nil || st.Quant.Segments != 1 || st.Quant.Beta != 4 {
		t.Fatalf("stats quant block = %+v, want a 1-shadow beta-4 tier", st.Quant)
	}

	// Search once (the default path is quantized), then the counter
	// series must be live on /metrics.
	if rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3}`); rec.Code != http.StatusOK {
		t.Fatalf("search: %d: %s", rec.Code, rec.Body)
	}
	metrics := do(t, h, "GET", "/metrics", "")
	body := metrics.Body.String()
	for _, series := range []string{"lsi_quant_beta 4", "lsi_quant_segments 1", "lsi_quant_searches_total 1"} {
		if !strings.Contains(body, series) {
			t.Fatalf("/metrics missing %q:\n%s", series, body)
		}
	}
}

func TestQuantizedSearchMatchesExhaustiveOverHTTP(t *testing.T) {
	plain := demoHandler(t, Options{})
	h := NewHandler(quantIndex(t), Options{})

	// The demo corpus is tiny, so topN·beta covers it and the quantized
	// default search must reproduce the exhaustive ranking exactly.
	want := do(t, plain, "POST", "/v1/search", `{"query":"car","topN":3}`)
	got := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3}`)
	if want.Code != http.StatusOK || got.Code != http.StatusOK {
		t.Fatalf("codes: %d / %d", want.Code, got.Code)
	}
	var w, g retrieval.SearchResponse
	if err := json.Unmarshal(want.Body.Bytes(), &w); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Body.Bytes(), &g); err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != len(w.Results) {
		t.Fatalf("quantized returned %d results, exhaustive %d", len(g.Results), len(w.Results))
	}
	for i := range w.Results {
		if g.Results[i] != w.Results[i] {
			t.Fatalf("quantized result %d = %+v, want %+v", i, g.Results[i], w.Results[i])
		}
	}

	// nprobe=0 remains the fully exact per-request escape hatch on a
	// quantized index.
	if rec := do(t, h, "POST", "/v1/search", `{"query":"car","topN":3,"nprobe":0}`); rec.Code != http.StatusOK {
		t.Fatalf("nprobe=0 on quantized index: %d: %s", rec.Code, rec.Body)
	}
}

func TestMetricsOmitQuantWithoutTier(t *testing.T) {
	h := demoHandler(t, Options{})
	if body := do(t, h, "GET", "/metrics", "").Body.String(); strings.Contains(body, "lsi_quant_") {
		t.Fatalf("tier-less index exports quant series:\n%s", body)
	}
}
