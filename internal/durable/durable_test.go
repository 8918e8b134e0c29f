package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCommitPublishes(t *testing.T) {
	dir := t.TempDir()
	tmp, path := filepath.Join(dir, ".x.tmp"), filepath.Join(dir, "x")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tmp, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Commit(tmp, path); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "new" {
		t.Fatalf("destination holds %q (%v), want the committed file", b, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file still present after commit: %v", err)
	}
}

func TestCommitFailedRenameLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ".x.tmp")
	if err := os.WriteFile(tmp, []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A non-empty directory at the destination makes the rename fail.
	path := filepath.Join(dir, "x")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Commit(tmp, path); err == nil {
		t.Fatal("commit over a non-empty directory succeeded")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after a failed rename: %v", err)
	}
	if fi, err := os.Stat(filepath.Join(path, "occupied")); err != nil || !fi.IsDir() {
		t.Fatalf("failed commit disturbed the destination: %v", err)
	}
}

func TestCommitMissingTemp(t *testing.T) {
	dir := t.TempDir()
	if err := Commit(filepath.Join(dir, "absent"), filepath.Join(dir, "x")); err == nil {
		t.Fatal("commit of a missing temp file succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "x")); !os.IsNotExist(err) {
		t.Fatalf("destination created by a failed commit: %v", err)
	}
}
