package main

// sarif.go renders findings as SARIF 2.1.0, the static-analysis
// interchange format CI systems (GitHub code scanning among them)
// ingest natively. The document is built from structs and marshaled
// with sorted rule metadata so a given finding set renders to
// byte-identical SARIF.

import (
	"encoding/json"
	"io"
	"path/filepath"
	"sort"

	"cclbtree/internal/analysis/persist"
)

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
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
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
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// writeSARIF emits one run with the full rule catalog (so suppressed
// and clean runs still document what was checked) and one result per
// finding, in the findings' already-deterministic order.
func writeSARIF(w io.Writer, findings []persist.Finding) error {
	titles := persist.RuleTitles()
	codes := make([]string, 0, len(titles))
	for c := range titles {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	rules := make([]sarifRule, 0, len(codes))
	for _, c := range codes {
		rules = append(rules, sarifRule{ID: c, ShortDescription: sarifMessage{Text: titles[c]}})
	}

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Code,
			Level:   "error",
			Message: sarifMessage{Text: f.Msg + " (in " + f.Func + ")"},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}

	doc := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "persistlint", InformationURI: "internal/analysis/persist", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
