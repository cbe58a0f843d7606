package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
)

func writeCorpus(t *testing.T, topics, docsPerTopic int) string {
	t.Helper()
	model, err := corpus.PureSeparableModel(corpus.SeparableConfig{
		NumTopics: topics, TermsPerTopic: 20, Epsilon: 0.05, MinLen: 30, MaxLen: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	model.Sampler = &corpus.RoundRobinSampler{NumTopics: topics, MinLen: 30, MaxLen: 60}
	c, err := corpus.Generate(model, topics*docsPerTopic, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := corpus.WriteJSON(f, c); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSmokePassesOnSeparableCorpus(t *testing.T) {
	path := writeCorpus(t, 8, 50)
	for _, tc := range []struct {
		tier string
		args []string
	}{
		// nprobe = nlist probes every cell, so recall is exactly 1 by the
		// determinism contract.
		{"ann", []string{"-nlist", "8", "-nprobe", "8"}},
		// beta=100 saturates a 400-document corpus (10*100 >= 400), so the
		// two-stage path degenerates to the exact pass and recall is
		// exactly 1.
		{"int8", []string{"-beta", "100"}},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "smoke.json")
			var stdout, stderr bytes.Buffer
			args := append([]string{"-tier", tc.tier, "-corpus", path, "-rank", "8",
				"-queries", "40", "-min-recall", "1.0", "-o", out}, tc.args...)
			if err := run(context.Background(), args, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
			}
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var s Summary
			if err := json.Unmarshal(data, &s); err != nil {
				t.Fatalf("summary not valid JSON: %v\n%s", err, data)
			}
			if s.Tier != tc.tier || s.Recall != 1 || s.Docs != 400 || s.Queries != 40 {
				t.Errorf("summary: %+v", s)
			}
			if s.ExactNsPerQuery <= 0 || s.TierNsPerQuery <= 0 || s.DocsPerQuery <= 0 {
				t.Errorf("latency and work fields not populated: %+v", s)
			}
			switch tc.tier {
			case "ann":
				if s.NList != 8 || s.NProbe != 8 || s.Beta != 0 || s.QuantBytes != 0 {
					t.Errorf("ann summary carries the wrong tier shape: %+v", s)
				}
			case "int8":
				if s.Beta != 100 || s.NList != 0 || s.QuantBytes <= 0 || s.QuantBytes >= s.FloatBytes {
					t.Errorf("int8 summary: shadow should be smaller than the float matrix: %+v", s)
				}
			}
		})
	}
}

func TestSmokeGatesFail(t *testing.T) {
	path := writeCorpus(t, 4, 25)
	for _, tier := range []string{"ann", "int8"} {
		t.Run(tier, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			// A speedup gate no configuration meets on 100 documents: the
			// gate must trip and name the ratio.
			err := run(context.Background(), []string{
				"-tier", tier, "-corpus", path, "-rank", "4", "-nlist", "4", "-nprobe", "4", "-beta", "4",
				"-queries", "10", "-min-speedup", "1e9", "-o", "-",
			}, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), "speedup") {
				t.Fatalf("speedup gate did not trip: %v", err)
			}
			if !strings.Contains(stdout.String(), "\"recall\"") {
				t.Error("summary should be written before the gate verdict")
			}
		})
	}
}

func TestRunFlagValidation(t *testing.T) {
	// Cases that fail before any tier is chosen.
	for _, args := range [][]string{
		{"-corpus", "x"},                  // -tier missing
		{"-tier", "fp16", "-corpus", "x"}, // unknown tier
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
	for _, tc := range []struct {
		tier  string
		extra [][]string
	}{
		{"ann", nil},
		{"int8", [][]string{{"-corpus", "x", "-beta", "0"}}},
	} {
		t.Run(tc.tier, func(t *testing.T) {
			cases := append([][]string{
				{},                       // -corpus missing
				{"-corpus", "x", "junk"}, // positional
				{"-corpus", "x", "-queries", "0"},
				{"-corpus", filepath.Join(t.TempDir(), "nope.jsonl")}, // unreadable
			}, tc.extra...)
			for _, args := range cases {
				args = append([]string{"-tier", tc.tier}, args...)
				var stdout, stderr bytes.Buffer
				if err := run(context.Background(), args, &stdout, &stderr); err == nil {
					t.Errorf("run(%v) should fail", args)
				}
			}
		})
	}
}

func TestTermTokenRoundTripsThroughTokenizer(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range []int{0, 1, 9, 10, 17, 103, 99999} {
		tok := termToken(id)
		if seen[tok] {
			t.Errorf("token collision at %d: %s", id, tok)
		}
		seen[tok] = true
		for _, r := range tok {
			if r < 'a' || r > 'z' {
				t.Errorf("termToken(%d) = %q contains a non-letter", id, tok)
			}
		}
	}
}
