; smdis --no-libc of this file must print disasm_pin.expected (ctest
; disasm_pin): every mnemonic, bad-register encodings, undefined bytes.
_start:
  movi r0, 0x5
  movi sp, 0xffffffff
  addi fp, -3
  cmpi r5, target
  mov r1, r0
  add r2, r3
  sub r4, r5
  mul fp, sp
  div r0, r1
  modu r2, r3
  and r4, r5
  or r0, fp
  xor sp, r1
  shl r2, r3
  shr r4, r5
  cmp r0, r1
  not r3
  load r2, [sp+4]
  load r0, [r1]
  loadb r3, [fp-8]
  loadb r4, [r5+0x7fffffff]
  store [fp-8], r3
  store [r0], r1
  storeb [sp+0x10], r2
  storeb [r4+0x80000000], r5
  jmp target
  jz 0x2000
  jnz 0
  jlt 0xdeadbeef
  jge target+4
  jb 1
  jae 0x80000000
  call 0x3000
  jmpr r4
  callr fp
  push sp
  pop r0
  ret
  syscall
target:
  nop
; Register bytes past r7 (the CPU raises #GP on these).
  .byte 0x02, 0x08, 0xff, 0x01, 0x09, 0x01, 0x00, 0x00, 0x00
  .byte 0x03, 0x0a, 0x07, 0x00, 0x00, 0x00, 0x80
  .byte 0x04, 0x80, 0x0b, 0xfc, 0xff, 0xff, 0xff
  .byte 0x33, 0xc8, 0x27, 0x08, 0x1c, 0x10
; Undefined opcodes, then a call cut short by the end of the section.
  .byte 0x00, 0x07, 0x0f, 0x1e, 0x28, 0x35, 0x41, 0x91, 0xcc, 0xff
  .byte 0x30, 0x00, 0x10
