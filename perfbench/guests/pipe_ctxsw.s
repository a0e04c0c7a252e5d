; Pipe ping-pong between two processes: the parent writes a 4-byte token
; down one pipe, the child answers token*1103515245+12345 up the other,
; and the parent checks the answer and sends it back as the next token.
; Each round trip blocks each side once, so every round trip is two
; context switches, and each switch flushes the TLBs.
;
; On success the parent writes the final token (4 raw bytes) to its
; console and exits 0; a wrong answer exits 1 at once. The harness
; prepends .equ ITERS (round trips) and SEED (the first token).
_start:
  movi r0, SYS_PIPE        ; parent -> child
  movi r1, fds1
  syscall
  movi r0, SYS_PIPE        ; child -> parent
  movi r1, fds2
  syscall
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz child
  movi r4, token
  movi r1, SEED
  store [r4], r1
  movi r5, ITERS
p_loop:
  movi r0, SYS_WRITE
  movi r4, fds1
  load r1, [r4+4]
  movi r2, token
  movi r3, 4
  syscall
  movi r0, SYS_READ
  movi r4, fds2
  load r1, [r4]
  movi r2, reply
  movi r3, 4
  syscall
  movi r4, token           ; expected = token * A + C
  load r1, [r4]
  movi r2, 1103515245
  mul r1, r2
  addi r1, 12345
  movi r4, reply
  load r2, [r4]
  cmp r1, r2
  jnz p_bad
  movi r4, token
  store [r4], r2
  addi r5, -1
  cmpi r5, 0
  jnz p_loop
  movi r0, SYS_CLOSE       ; EOF tells the child to exit
  movi r4, fds1
  load r1, [r4+4]
  syscall
  movi r0, SYS_WRITE
  movi r1, FD_CONSOLE
  movi r2, token
  movi r3, 4
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
p_bad:
  movi r0, SYS_EXIT
  movi r1, 1
  syscall

child:
  movi r0, SYS_CLOSE       ; keep only the child's ends open
  movi r4, fds1
  load r1, [r4+4]
  syscall
  movi r0, SYS_CLOSE
  movi r4, fds2
  load r1, [r4]
  syscall
c_loop:
  movi r0, SYS_READ
  movi r4, fds1
  load r1, [r4]
  movi r2, ctoken
  movi r3, 4
  syscall
  cmpi r0, 4               ; EOF (or an error) ends the child
  jnz c_exit
  movi r4, ctoken
  load r1, [r4]
  movi r2, 1103515245
  mul r1, r2
  addi r1, 12345
  store [r4], r1
  movi r0, SYS_WRITE
  movi r4, fds2
  load r1, [r4+4]
  movi r2, ctoken
  movi r3, 4
  syscall
  jmp c_loop
c_exit:
  movi r0, SYS_EXIT
  movi r1, 0
  syscall

.bss
fds1:   .space 8
fds2:   .space 8
token:  .space 4
reply:  .space 4
ctoken: .space 4
