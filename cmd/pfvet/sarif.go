package main

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
)

// Minimal SARIF 2.1.0 writer so CI can upload the findings as a
// machine-readable artifact and annotate pull requests. Only the subset
// GitHub code scanning consumes is emitted: one run, one rule per check,
// one result per finding with a physical location.

const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
)

// ruleDocs describes every check for the SARIF rule table.
var ruleDocs = map[string]string{
	"batmut":      "No element writes into shared bat column vectors outside internal/bat.",
	"determinism": "Kernel packages must not read the clock or a random source.",
	"ctxpoll":     "Context-taking engine functions with nested row loops must poll the context.",
	"mutexval":    "No value receivers on types holding sync state (locks a copy).",
	"maporder":    "Optimizer rewrite passes must not depend on map iteration order.",
	"lockorder":   "Mutex acquisition order must be acyclic; shared locks must not be held across I/O.",
	"colown":      "Columnar state adopted on a publish path must be cloned, not mutated in place.",
	"golifecycle": "Every goroutine must join or poll cancellation; WaitGroup Add must not race Wait reuse.",
	"errclass":    "Errors crossing the service boundary must carry the documented status contract.",
}

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID        string       `json:"id"`
	ShortDesc sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

// sarifBytes renders findings as a SARIF log; file paths become
// module-root-relative URIs.
func sarifBytes(root string, fs []finding) ([]byte, error) {
	var ruleIDs []string
	for id := range ruleDocs {
		ruleIDs = append(ruleIDs, id)
	}
	sort.Strings(ruleIDs)
	var rules []sarifRule
	for _, id := range ruleIDs {
		rules = append(rules, sarifRule{ID: id, ShortDesc: sarifMessage{Text: ruleDocs[id]}})
	}
	results := []sarifResult{}
	for _, f := range fs {
		uri := f.pos.Filename
		if rel, err := filepath.Rel(root, uri); err == nil && !strings.HasPrefix(rel, "..") {
			uri = rel
		}
		results = append(results, sarifResult{
			RuleID:  f.check,
			Level:   "error",
			Message: sarifMessage{Text: f.msg},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(uri)},
					Region:           sarifRegion{StartLine: f.pos.Line},
				},
			}},
		})
	}
	log := sarifLog{
		Version: sarifVersion,
		Schema:  sarifSchema,
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "pfvet", Rules: rules}},
			Results: results,
		}},
	}
	return json.MarshalIndent(log, "", "  ")
}
