#include "textflag.h"

// func getfp() unsafe.Pointer
//
// NOFRAME leaves BP alone, so it still holds the caller's frame
// pointer: the address of the caller's saved BP, with the caller's
// return address one word above it.
TEXT ·getfp(SB),NOSPLIT|NOFRAME,$0-8
	MOVQ	BP, ret+0(FP)
	RET
