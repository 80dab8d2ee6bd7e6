//go:build amd64 && !race

#include "textflag.h"

// func axpy(c []float64, a float64, b []float64)
//
// c[j] += a*b[j] for j < len(c), eight elements per iteration, then
// pairs, then one scalar tail. Each lane is MULPD (product rounded to
// float64) then ADDPD (sum rounded to float64): the same two IEEE
// operations the compiled scalar loop in axpyGeneric performs with
// MULSD/ADDSD, so every result has the same bits. No FMA: it would
// round once, not twice.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ     c_base+0(FP), DI
	MOVQ     c_len+8(FP), CX
	MOVSD    a+24(FP), X0
	MOVQ     b_base+32(FP), SI
	UNPCKLPD X0, X0
	MOVQ     CX, BX
	SHRQ     $3, BX
	JZ       pairs

loop8:
	MOVUPD 0(SI), X1
	MOVUPD 16(SI), X2
	MOVUPD 32(SI), X3
	MOVUPD 48(SI), X4
	MULPD  X0, X1
	MULPD  X0, X2
	MULPD  X0, X3
	MULPD  X0, X4
	MOVUPD 0(DI), X5
	MOVUPD 16(DI), X6
	MOVUPD 32(DI), X7
	MOVUPD 48(DI), X8
	ADDPD  X1, X5
	ADDPD  X2, X6
	ADDPD  X3, X7
	ADDPD  X4, X8
	MOVUPD X5, 0(DI)
	MOVUPD X6, 16(DI)
	MOVUPD X7, 32(DI)
	MOVUPD X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	DECQ   BX
	JNZ    loop8

pairs:
	ANDQ $7, CX
	MOVQ CX, BX
	SHRQ $1, BX
	JZ   single

loop2:
	MOVUPD (SI), X1
	MULPD  X0, X1
	MOVUPD (DI), X5
	ADDPD  X1, X5
	MOVUPD X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   BX
	JNZ    loop2

single:
	ANDQ  $1, CX
	JZ    done
	MOVSD (SI), X1
	MULSD X0, X1
	MOVSD (DI), X5
	ADDSD X1, X5
	MOVSD X5, (DI)

done:
	RET
