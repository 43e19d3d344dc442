package main

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"xlnand"
	"xlnand/internal/stats"
)

// bchCmd drives real data through the adaptive BCH codec, stdin to
// stdout:
//
//	xlnand bch encode  -t 30 < data.bin > codeword.bin
//	xlnand bch corrupt -errors 20 -seed 3 < codeword.bin > dirty.bin
//	xlnand bch decode  -t 30 < dirty.bin > recovered.bin
//	xlnand bch roundtrip -t 30 -errors 25 < data.bin
//
// Data shorter than one 4 KB page is zero-padded; longer input is split
// into pages, each protected independently (the controller's layout).
func bchCmd(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	if len(args) == 0 || !slices.Contains([]string{"encode", "corrupt", "decode", "roundtrip"}, args[0]) {
		return usageErrorf("{encode|corrupt|decode|roundtrip} [-t N] [-errors N] [-seed N]")
	}
	op := args[0]
	fs := newFlags("bch "+op, stderr)
	t := fs.Int("t", 30, "correction capability (3-65)")
	nErrors := fs.Int("errors", 10, "bit errors to inject per codeword (corrupt/roundtrip)")
	seed := fs.Uint64("seed", 1, "error-injection seed")
	if err := parse(fs, args[1:]); err != nil {
		return err
	}

	codec, err := xlnand.NewPageCodec()
	if err != nil {
		return err
	}
	in, err := io.ReadAll(stdin)
	if err != nil {
		return err
	}
	pageBytes := codec.K / 8
	parityBytes, err := codec.ParityBytes(*t)
	if err != nil {
		return err
	}
	cwBytes := pageBytes + parityBytes
	if *nErrors < 0 || *nErrors > 8*cwBytes {
		return usageErrorf("-errors %d: want 0 to %d (the bits of one codeword at t=%d)", *nErrors, 8*cwBytes, *t)
	}
	emit := func(b []byte) error {
		_, err := stdout.Write(b)
		return err
	}

	switch op {
	case "encode":
		return forEachChunk(in, pageBytes, func(page []byte) error {
			cw, err := codec.EncodeCodeword(*t, page)
			if err != nil {
				return err
			}
			return emit(cw)
		})
	case "corrupt":
		rng := stats.NewRNG(*seed)
		return forEachChunk(in, cwBytes, func(cw []byte) error {
			flipRandom(cw, *nErrors, rng)
			return emit(cw)
		})
	case "decode":
		total := 0
		err := forEachChunk(in, cwBytes, func(cw []byte) error {
			n, err := codec.Decode(*t, cw)
			if err != nil {
				return fmt.Errorf("codeword uncorrectable: %w", err)
			}
			total += n
			return emit(cw[:pageBytes])
		})
		if err == nil {
			fmt.Fprintf(stderr, "xlnand bch: corrected %d bit error(s)\n", total)
		}
		return err
	}

	// roundtrip: encode, corrupt and decode each page in memory.
	rng := stats.NewRNG(*seed)
	pages, corrected := 0, 0
	err = forEachChunk(in, pageBytes, func(page []byte) error {
		cw, err := codec.EncodeCodeword(*t, page)
		if err != nil {
			return err
		}
		flipRandom(cw, *nErrors, rng)
		n, err := codec.Decode(*t, cw)
		if err != nil {
			return fmt.Errorf("page %d uncorrectable: %w", pages, err)
		}
		if !bytes.Equal(cw[:len(page)], page) {
			return fmt.Errorf("page %d: silent corruption", pages)
		}
		pages++
		corrected += n
		return nil
	})
	if err == nil {
		fmt.Fprintf(stdout, "roundtrip OK: %d page(s), t=%d, %d error(s) injected and corrected\n",
			pages, *t, corrected)
	}
	return err
}

// forEachChunk calls f on each size-byte chunk of data, the last one
// zero-padded; empty data is one zero chunk.
func forEachChunk(data []byte, size int, f func([]byte) error) error {
	if len(data) == 0 {
		data = make([]byte, size)
	}
	for off := 0; off < len(data); off += size {
		chunk := make([]byte, size)
		copy(chunk, data[off:min(off+size, len(data))])
		if err := f(chunk); err != nil {
			return err
		}
	}
	return nil
}

func flipRandom(buf []byte, n int, rng *stats.RNG) {
	for _, pos := range rng.SampleK(len(buf)*8, n) {
		buf[pos/8] ^= 1 << uint(7-pos%8)
	}
}
