package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
)

// goldenSeed is the seed the committed results/*.csv were made with.
const goldenSeed = 42

// checkGolden compares rendered CSV rows byte for byte with the
// committed golden results/<name>.csv and records the verdict.
func (o *outcome) checkGolden(cfg config, name string, rows [][]string) {
	got, err := campaign.EncodeCSV(rows)
	if err != nil {
		o.problem("encoding %s: %v", name, err)
		return
	}
	o.checkGoldenBytes(cfg, name, got)
}

func (o *outcome) checkGoldenBytes(cfg config, name string, got []byte) {
	want, err := os.ReadFile(filepath.Join(cfg.root, "results", name+".csv"))
	if err != nil {
		o.problem("reading golden: %v", err)
		return
	}
	verdict := "match"
	if !bytes.Equal(got, want) {
		verdict = "MISMATCH"
		o.problem("%s output differs from results/%s.csv", name, name)
	}
	if o.golden != "" {
		o.golden += ", "
	}
	o.golden += fmt.Sprintf("%s %s", name, verdict)
}
