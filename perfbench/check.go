package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
)

// scoreTol is how far a served score may sit from the in-process exact
// reference. Both come from the same float64 kernels over the same
// saved index, and JSON round-trips float64 exactly.
const scoreTol = 1e-12

// result is one hit as /v1/search returns it.
type result struct {
	Doc   int     `json:"doc"`
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

type searchResponse struct {
	Results []result `json:"results"`
}

// isShed reports whether a status is the admission gate shedding load:
// not a failure, but not a completion either.
func isShed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// decodeResults parses a /v1/search response body.
func decodeResults(body []byte) ([]result, error) {
	var r searchResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return r.Results, nil
}

// checkWellFormed checks what every response must satisfy whether or
// not a reference exists for it: topN hits in non-increasing score order.
func checkWellFormed(got []result) error {
	if len(got) != topN {
		return fmt.Errorf("got %d results, want %d", len(got), topN)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			return fmt.Errorf("result %d scores %.17g above result %d (%.17g)", i, got[i].Score, i-1, got[i-1].Score)
		}
	}
	return nil
}

// checkExact requires got to equal the exact reference: the same IDs in
// the same order, each score within scoreTol.
func checkExact(got, ref []result) error {
	if len(got) != len(ref) {
		return fmt.Errorf("got %d results, reference has %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].ID != ref[i].ID {
			return fmt.Errorf("rank %d: got %s, reference %s", i, got[i].ID, ref[i].ID)
		}
		if math.Abs(got[i].Score-ref[i].Score) > scoreTol {
			return fmt.Errorf("rank %d (%s): score %.17g, reference %.17g", i, ref[i].ID, got[i].Score, ref[i].Score)
		}
	}
	return nil
}

// checkApprox checks a tiered response against the exact reference. The
// tiers may return other documents than the exact top N, but every
// served score is an exact cosine: a document the reference also ranks
// must carry the reference's score, and any other document cannot
// outscore the reference's last hit.
func checkApprox(got, ref []result) error {
	if err := checkWellFormed(got); err != nil {
		return err
	}
	if len(ref) == 0 {
		return fmt.Errorf("empty reference")
	}
	want := make(map[string]float64, len(ref))
	for _, r := range ref {
		want[r.ID] = r.Score
	}
	floor := ref[len(ref)-1].Score
	for i, g := range got {
		s, ok := want[g.ID]
		switch {
		case ok && math.Abs(g.Score-s) > scoreTol:
			return fmt.Errorf("rank %d (%s): score %.17g, reference %.17g", i, g.ID, g.Score, s)
		case !ok && g.Score > floor+scoreTol:
			return fmt.Errorf("rank %d (%s): score %.17g beats the reference's last hit %.17g", i, g.ID, g.Score, floor)
		}
	}
	return nil
}

// overlap is the share of the reference's IDs that got also returns.
func overlap(got, ref []result) float64 {
	if len(ref) == 0 {
		return 0
	}
	in := make(map[string]bool, len(got))
	for _, g := range got {
		in[g.ID] = true
	}
	n := 0
	for _, r := range ref {
		if in[r.ID] {
			n++
		}
	}
	return float64(n) / float64(len(ref))
}
