package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"pathfinder/internal/engine"
	"pathfinder/internal/navdom"
	"pathfinder/internal/xenc"
	"pathfinder/internal/xmark"
	"pathfinder/internal/xqcore"
)

// docURI is the name every workload loads its document under.
const docURI = "xmark.xml"

// oracle answers queries with navdom, the navigational interpreter that
// shares no execution code with the relational stack, over the value
// indexes the paper's baseline was tuned with.
type oracle struct{ db *navdom.DB }

func newOracle(doc string) (*oracle, error) {
	db := navdom.NewDB()
	if _, err := db.LoadString(docURI, doc); err != nil {
		return nil, fmt.Errorf("oracle: load document: %w", err)
	}
	db.AddValueIndex("buyer", "person")
	db.AddValueIndex("profile", "income")
	return &oracle{db: db}, nil
}

func (o *oracle) answer(text string, opts xqcore.Options) (string, error) {
	out, err := navdom.NewInterp(o.db).Run(text, opts)
	if err != nil {
		return "", fmt.Errorf("oracle: %w", err)
	}
	return out, nil
}

// answerAll fills in the oracle's answer to every query. A navdom DB hands
// out tree identifiers as its interpreter constructs, so it serves one query
// at a time; two DBs side by side take 5 s, not 7.5 s, over q08-q12 at SF 0.1.
// Queries are handed out last first: in XMark's order the costly ones come
// last, and q11 alone is more than half.
func answerAll(doc string, queries []query) error {
	workers := min(2, runtime.NumCPU(), len(queries))
	errs := make([]error, workers)
	var taken atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			or, err := newOracle(doc)
			for err == nil {
				i := len(queries) - int(taken.Add(1))
				if i < 0 {
					break
				}
				queries[i].want, err = or.answer(queries[i].text, queries[i].opts)
			}
			errs[w] = err
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// goldenSF is the scale factor internal/engine/testdata/golden was pinned at.
const goldenSF = 0.002

// checkGolden runs the given XMark queries through the pipeline on the
// golden instance and compares byte for byte with the hand-pinned files:
// the one reference here that no code in this repository computes.
func checkGolden(root string, nums []int) error {
	eng := engine.New(xenc.NewStore())
	if _, err := eng.Store.LoadDocumentString(docURI, xmark.GenerateString(goldenSF)); err != nil {
		return fmt.Errorf("golden: load document: %w", err)
	}
	for _, q := range xmarkQueries(nums) {
		want, err := os.ReadFile(filepath.Join(root, "internal", "engine", "testdata", "golden", q.kind+".xml"))
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		got, err := runCold(eng, q)
		if err != nil {
			return fmt.Errorf("golden: %s: %w", q.kind, err)
		}
		if got+"\n" != string(want) {
			return fmt.Errorf("golden: %s output differs from the pinned file", q.kind)
		}
	}
	return nil
}
