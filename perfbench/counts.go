package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// crossCheck compares this run's exact counts per input with those an
// earlier run of the same build recorded, then records the union. The
// build is identified by the hash of the running binary, so runs of two
// commits never compare against each other. A mismatch is a wrong answer:
// these counts must repeat exactly for a given program and input.
func (o *outcome) crossCheck(perInput map[string]exactCounts) error {
	id, err := buildID()
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "counts-"+id+".json")
	known := map[string]exactCounts{}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &known); err != nil {
			return fmt.Errorf("read %s: %w", path, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	names := make([]string, 0, len(perInput))
	for n := range perInput {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		got := perInput[n]
		if prev, ok := known[n]; ok && prev != got {
			o.wrong("%s: exact counts %+v differ from an earlier run's %+v", n, got, prev)
			continue
		}
		known[n] = got
	}
	out, err := json.MarshalIndent(known, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// buildID is a short hash of the running executable.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", exe, err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
