package main

import (
	"encoding/binary"
	"math"
)

// Payloads are small integers stored as float64, so every reduction order
// gives the bit-identical sum and results can be compared exactly against
// the naive references below, which simply loop over the ranks' inputs.

// fillF64 writes rank's contribution: element i is an integer in [1, 11].
func fillF64(buf []byte, rank, salt int) {
	for i := 0; i+8 <= len(buf); i += 8 {
		v := float64(1 + (rank*5+i/8+salt)%11)
		binary.LittleEndian.PutUint64(buf[i:], math.Float64bits(v))
	}
}

// fillBytes writes a byte pattern for the collectives that only move data.
func fillBytes(buf []byte, rank, salt int) {
	for i := range buf {
		buf[i] = byte(rank*31 + i + salt)
	}
}

// naiveSumF64 is the reference reduction: out[i] = sends[0][i] + sends[1][i]
// + ..., added in rank order, one element at a time.
func naiveSumF64(sends [][]byte) []byte {
	n := len(sends[0])
	out := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		var acc float64
		for _, s := range sends {
			acc += math.Float64frombits(binary.LittleEndian.Uint64(s[i:]))
		}
		binary.LittleEndian.PutUint64(out[i:], math.Float64bits(acc))
	}
	return out
}

// naiveAllgatherv is the reference gather: every rank's block, in rank
// order.
func naiveAllgatherv(sends [][]byte) []byte {
	var out []byte
	for _, s := range sends {
		out = append(out, s...)
	}
	return out
}

// naiveAlltoallv returns what rank `me` must receive: block (q -> me) cut
// from every sender q's packed send buffer, in sender order. bytesM is the
// p×p row-major byte-count matrix.
func naiveAlltoallv(sends [][]byte, bytesM []int, me int) []byte {
	p := len(sends)
	var out []byte
	for q := 0; q < p; q++ {
		off := 0
		for j := 0; j < me; j++ {
			off += bytesM[q*p+j]
		}
		out = append(out, sends[q][off:off+bytesM[q*p+me]]...)
	}
	return out
}

// naiveReduceScatterv returns rank me's block of the reduced vector.
func naiveReduceScatterv(sends [][]byte, byteCounts []int, me int) []byte {
	full := naiveSumF64(sends)
	off := 0
	for r := 0; r < me; r++ {
		off += byteCounts[r]
	}
	return full[off : off+byteCounts[me]]
}
