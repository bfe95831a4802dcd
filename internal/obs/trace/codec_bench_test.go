package trace_test

import (
	"bytes"
	"io"
	"testing"

	"sudc/internal/obs/trace"
	"sudc/internal/obs/trace/tracetest"
)

// The codec benchmarks run on the reference recording; each has its own
// BENCH_LEDGER.json row.

func BenchmarkWriteJSONL(b *testing.B) {
	rec := tracetest.Reference(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeJSONL(b *testing.B) {
	var jsonl bytes.Buffer
	if err := tracetest.Reference(b).WriteJSONL(&jsonl); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.DecodeJSONL(bytes.NewReader(jsonl.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteChrome(b *testing.B) {
	rec := tracetest.Reference(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rec.WriteChrome(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
