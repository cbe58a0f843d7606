package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/corpus"
	"repro/internal/lsi"
	"repro/internal/segment"
	"repro/internal/topk"
	"repro/retrieval"
	"repro/retrieval/shard"
	"repro/retrieval/wal"
)

// The write path the traced run times in process: the index that
// `lsiserve -shards 4 -wal-dir ...` would build from the same corpus,
// fed batches of fresh documents from the model.
const (
	ingestShards  = 4
	ingestBatch   = 32  // documents per POST /v1/docs:batch
	ingestBatches = 136 // 4,352 documents: four seals of every shard and a live segment
)

// ingestConfig is the shard configuration lsiserve -shards 4 builds
// with at rank 32 on the randomized engine. The background compactor is
// off: the replay calls Compact itself whenever a seal leaves debt, so
// each pass is one timed call.
func ingestConfig() shard.Config {
	return shard.Config{Shards: ingestShards, Rank: rank, Engine: lsi.EngineRandomized}
}

// writeStats is what the write-path replay counted.
type writeStats struct {
	acked         int // documents acknowledged by AddBatch
	compactPasses int // Compact calls that merged something
	compactions   int64
	debtMax       int // largest compaction debt seen after a batch
	segments      int // segments a search visits after ingest
	searched      int // queries replayed on the sharded index
	// wrong counts failed checks: a batch landing out of place, a
	// document count or WAL length off after ingest, a query on which
	// the shard and segment searches disagree. firstWrong says what the
	// first was.
	wrong      int
	firstWrong string
}

func (st *writeStats) fail(format string, args ...any) {
	st.wrong++
	if st.firstWrong == "" {
		st.firstWrong = fmt.Sprintf(format, args...)
	}
}

// traceWritePath replays ingestBatches batches of fresh documents
// through the durable write path the way retrieval's Add runs it (WAL
// append and fsync, then AddBatch), compacting after every batch that
// seals, then replays queries through shard.Index.SearchSparse and
// through segment.SearchSparseOpts on the same segment set. It checks
// that the index ends with its start count plus the acked documents,
// that the WAL holds every batch, and that both searches agree.
func traceWritePath(tr *tracer, sx *shard.Index, l *layers, m *corpus.Model, seed int64, dir string, queries []string) (writeStats, error) {
	var st writeStats
	docs, err := sampleDocs(m, ingestBatch*ingestBatches, seed, "w")
	if err != nil {
		return st, err
	}
	log, err := wal.Open(filepath.Join(dir, "wal"))
	if err != nil {
		return st, err
	}
	defer log.Close()
	start := sx.NumDocs()
	for b := 0; b < ingestBatches; b++ {
		batch := docs[b*ingestBatch : (b+1)*ingestBatch]
		payload, err := json.Marshal(retrieval.WALBatch{First: sx.NumDocs(), Docs: batch})
		if err != nil {
			return st, err
		}
		tr.req = b
		id := tr.begin("wal.append")
		err = log.Append(payload)
		tr.end(id)
		if err != nil {
			return st, err
		}
		sd := make([]shard.Doc, len(batch))
		for i, d := range batch {
			terms, weights := sparseQuery(l.pipe, l.vocab, d.Text)
			sd[i] = shard.Doc{ID: d.ID, Terms: terms, Weights: weights}
		}
		id = tr.begin("shard.addbatch")
		first, err := sx.AddBatch(sd)
		tr.end(id)
		if err != nil {
			return st, err
		}
		if want := start + st.acked; first != want {
			st.fail("batch %d landed at %d, want %d", b, first, want)
		}
		st.acked += len(batch)
		if debt := sx.CompactionDebt(); debt > 0 {
			st.debtMax = max(st.debtMax, debt)
			id = tr.begin("shard.compact")
			merged, err := sx.Compact()
			tr.end(id)
			if err != nil {
				return st, err
			}
			if merged > 0 {
				st.compactPasses++
			}
		}
	}
	st.compactions = sx.Compactions()
	if got, want := sx.NumDocs(), start+st.acked; got != want {
		st.fail("index holds %d documents after ingest, want %d", got, want)
	}
	records := 0
	if err := log.Replay(func([]byte) error { records++; return nil }); err != nil {
		return st, err
	}
	if records != ingestBatches {
		st.fail("wal holds %d records, want %d", records, ingestBatches)
	}

	// The segment set the shard index searches, reloaded from its own
	// save the way shard.Open loads it.
	saved := filepath.Join(dir, "sharded")
	if err := sx.SaveDir(saved); err != nil {
		return st, err
	}
	segs, err := loadSegments(saved)
	if err != nil {
		return st, err
	}
	st.segments = len(segs)
	for i, q := range queries {
		terms, weights := sparseQuery(l.pipe, l.vocab, q)
		tr.req = i
		id := tr.begin("shard.search")
		got := sx.SearchSparse(terms, weights, topN)
		tr.end(id)
		id = tr.begin("segment.search")
		want, _ := segment.SearchSparseOpts(segs, terms, weights, topN, segment.ProbeOptions{})
		tr.end(id)
		st.searched++
		if !sameMatches(got, want) {
			st.fail("query %d: shard search %v, segment search %v", i, got, want)
		}
	}
	return st, nil
}

// loadSegments reads every segment of a saved shard directory.
func loadSegments(dir string) ([]*segment.Segment, error) {
	data, err := os.ReadFile(filepath.Join(dir, shard.ManifestName))
	if err != nil {
		return nil, err
	}
	man, err := shard.ParseManifest(data)
	if err != nil {
		return nil, err
	}
	var segs []*segment.Segment
	for _, entries := range man.Segments {
		for _, e := range entries {
			f, err := os.Open(filepath.Join(dir, e.File))
			if err != nil {
				return nil, err
			}
			ix, err := lsi.Load(f)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("segment %s: %w", e.File, err)
			}
			seg, err := segment.New(ix, e.Globals, nil, e.Compacted)
			if err != nil {
				return nil, fmt.Errorf("segment %s: %w", e.File, err)
			}
			segs = append(segs, seg)
		}
	}
	return segs, nil
}

// sameMatches reports whether two rankings hold the same documents in
// the same order with scores within scoreTol.
func sameMatches(a, b []topk.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > scoreTol {
			return false
		}
	}
	return true
}
