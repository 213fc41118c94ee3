package cfdclean_test

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestExamplesRun builds every program under examples/ and runs it with
// no arguments: each must exit 0 within a minute and print something.
// examples/service is the tree's Go client of the HTTP service, so this
// also drives the /apply wire format end to end outside the server's
// own batteries.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example program")
	}
	ents, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, ent := range ents {
		name := ent.Name()
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(bin, name))
			// etl writes its demo feed under the temp dir; keep it in ours.
			cmd.Env = append(os.Environ(), "TMPDIR="+t.TempDir())
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v (context: %v)\nstderr:\n%s", name, err, ctx.Err(), stderr.Bytes())
			}
			if stdout.Len() == 0 {
				t.Fatalf("%s printed nothing", name)
			}
		})
	}
}
