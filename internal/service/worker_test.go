package service

import (
	"context"
	"strings"
	"testing"
)

func TestParseWorker(t *testing.T) {
	w, err := ParseWorker("local", 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "local-0" {
		t.Fatalf("local worker name = %q", w.Name())
	}
	for _, spec := range []string{"carrier-pigeon://host", "ssh://host", "ssh://"} {
		if _, err := ParseWorker(spec, 1); err == nil {
			t.Fatalf("worker %q accepted; only local workers exist", spec)
		}
	}
}

func TestLocalWorkerStderrTail(t *testing.T) {
	w, err := ParseWorker("local", 0)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(context.Background(), "/bin/sh", []string{"-c", "echo the-failing-cell >&2; exit 7"})
	if err == nil {
		t.Fatal("failing child reported success")
	}
	if want := "the-failing-cell"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not carry the child's stderr tail %q", err, want)
	}
}
