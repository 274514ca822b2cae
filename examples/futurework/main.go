// Future work: run the three studies the paper explicitly defers — branch
// prediction (§3), alternative extension-bit schemes and word partitions
// (§2.1) — on a single benchmark, using the library's extension APIs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/activity"
	"repro/internal/bench"
	"repro/internal/pipeline"
	"repro/internal/sig"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	name := flag.String("bench", "rawcaudio", "benchmark to study")
	flag.Parse()

	b, ok := bench.ByName(*name)
	if !ok {
		log.Fatalf("unknown benchmark %q; available: %v", *name, bench.Names())
	}
	rc, _, err := trace.SuiteRecoder(bench.All())
	if err != nil {
		log.Fatal(err)
	}

	src, err := trace.CaptureRun(context.Background(), b)
	if err != nil {
		log.Fatal(err)
	}
	image, err := src.NewMemory()
	if err != nil {
		log.Fatal(err)
	}
	// Consumers: predicted + unpredicted pipelines, both byte schemes, and
	// the partition tally.
	base := pipeline.NewBaseline32()
	baseBP := pipeline.NewPredicted(pipeline.NameBaseline32)
	serial := pipeline.NewByteSerial()
	serialBP := pipeline.NewPredicted(pipeline.NameByteSerial)
	s3 := activity.NewCollector(1, rc, image)
	s2 := activity.NewCollectorScheme(1, activity.Scheme2, rc, image)
	parts := activity.NewPartitionStats()

	if err := src.ReplayBlocksOn(context.Background(), image, rc, base, baseBP, serial, serialBP, s3, s2, parts); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s (%d instructions)\n\n", b.Name, base.Result().Insts)

	bp := stats.NewTable("Branch prediction (512-entry bimodal)", "model", "CPI", "with prediction", "accuracy")
	bp.AddStringRow(base.Name(),
		fmt.Sprintf("%.3f", base.Result().CPI()),
		fmt.Sprintf("%.3f", baseBP.Result().CPI()),
		fmt.Sprintf("%.1f%%", 100*baseBP.PredictorAccuracy()))
	bp.AddStringRow(serial.Name(),
		fmt.Sprintf("%.3f", serial.Result().CPI()),
		fmt.Sprintf("%.3f", serialBP.Result().CPI()),
		fmt.Sprintf("%.1f%%", 100*serialBP.PredictorAccuracy()))
	fmt.Println(bp.String())

	sch := stats.NewTable("Extension scheme (storage/transport stages)", "stage", "3-bit", "2-bit")
	for _, s := range []struct {
		name   string
		f3, f2 activity.StageBits
	}{
		{"RF read", s3.Counts().RFRead, s2.Counts().RFRead},
		{"RF write", s3.Counts().RFWrite, s2.Counts().RFWrite},
		{"D-cache data", s3.Counts().DCacheData, s2.Counts().DCacheData},
		{"Latches", s3.Counts().Latch, s2.Counts().Latch},
	} {
		sch.AddStringRow(s.name, stats.Pct(s.f3.Reduction()), stats.Pct(s.f2.Reduction()))
	}
	fmt.Println(sch.String())

	pt := stats.NewTable("Word partitions (stored bits per operand value)", "partition", "mean bits", "saving")
	for _, row := range parts.Rows() {
		pt.AddStringRow(row.Name, fmt.Sprintf("%.2f", row.MeanBits), fmt.Sprintf("%.1f%%", row.Saving))
	}
	fmt.Println(pt.String())

	// And one custom partition, to show the API directly.
	custom := sig.Partition{4, 12, 16}
	if err := custom.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("custom partition %v: value 0x1234 stores %d bits\n",
		custom, custom.StoredBits(0x1234))
}
