; Event-driven server: a master multiplexing the host channel (fd 0) and
; a shared response pipe with select2, in front of WORKERS forked workers.
; The host streams 4-byte request ids into the channel, keeping at most
; WINDOW in flight (closed loop). The master stamps each request with
; SYS_TIME, forwards it down the request pipe, and for each response
; reports {id, latency in cycles} back to the host as an 8-byte record.
; Workers loop read(8) -> service -> write(12); the service loop length
; depends on the id's low bits, so latencies have a tail.
;
; The harness prepends .equ WORKERS, WINDOW and WORKBASE.
_start:
  movi r0, SYS_PIPE        ; request pipe: rd=2, wr=3
  movi r1, reqfds
  syscall
  movi r0, SYS_PIPE        ; response pipe: rd=4, wr=5
  movi r1, respfds
  syscall
  movi r5, WORKERS
m_spawn:
  movi r0, SYS_FORK
  syscall
  cmpi r0, 0
  jz worker
  addi r5, -1
  cmpi r5, 0
  jnz m_spawn
  movi r5, 0               ; r5 = requests in flight
m_loop:
  cmpi r5, WINDOW          ; window full: only a response can make progress
  jae m_resp
  movi r0, SYS_SELECT2     ; select2(response pipe, channel) — responses
  movi r1, 4               ; have priority so the window drains first
  movi r2, 0
  syscall
  cmpi r0, 0
  jz m_resp
  movi r0, SYS_READ        ; channel readable (or EOF): next request id
  movi r1, 0
  movi r2, chbuf
  movi r3, 4
  syscall
  cmpi r0, 0
  jz m_drain               ; EOF: the stream is done, drain the window
  movi r4, chbuf           ; forward {id, SYS_TIME} into the request pipe
  load r1, [r4]
  movi r4, reqrec
  store [r4], r1
  movi r0, SYS_TIME
  syscall
  movi r4, reqrec
  store [r4+4], r0
  movi r0, SYS_WRITE
  movi r1, 3
  movi r2, reqrec
  movi r3, 8
  syscall
  addi r5, 1
  jmp m_loop
m_resp:
  call handle_resp
  jmp m_loop
m_drain:
  cmpi r5, 0
  jz m_shutdown
  call handle_resp
  jmp m_drain
m_shutdown:
  movi r0, SYS_CLOSE       ; drop the last request-pipe write end: EOF
  movi r1, 3               ; fans out to every blocked worker
  syscall
  movi r0, SYS_EXIT
  movi r1, 0
  syscall

; reads one 12-byte response, reports {id, latency} to the host.
; Clobbers r0-r4; decrements r5 (in flight).
handle_resp:
  movi r0, SYS_READ
  movi r1, 4
  movi r2, respbuf
  movi r3, 12
  syscall
  movi r0, SYS_TIME
  syscall
  movi r4, respbuf
  load r1, [r4+4]          ; the stamp the master wrote at admission
  sub r0, r1               ; u32 wraparound subtraction
  movi r4, latbuf
  store [r4+4], r0
  movi r4, respbuf
  load r1, [r4]            ; the request id the worker echoed
  movi r4, latbuf
  store [r4], r1
  movi r0, SYS_WRITE
  movi r1, 0
  movi r2, latbuf
  movi r3, 8
  syscall
  addi r5, -1
  ret

worker:
  movi r0, SYS_CLOSE       ; drop the master-side ends so EOF/EPIPE track
  movi r1, 3               ; the master alone
  syscall
  movi r0, SYS_CLOSE
  movi r1, 4
  syscall
w_loop:
  movi r0, SYS_READ        ; one whole 8-byte request (0 = EOF, retire)
  movi r1, 2
  movi r2, wreq
  movi r3, 8
  syscall
  cmpi r0, 0
  jz w_exit
  movi r4, wreq            ; service time = WORKBASE + (id & 63) * 8
  load r2, [r4]            ; r2 = working value seeded from the id
  mov r3, r2
  movi r1, 63
  and r3, r1
  movi r1, 8
  mul r3, r1
  addi r3, WORKBASE
  movi r1, 0               ; r1 = checksum
w_work:
  movi r0, 1103515245      ; LCG step + a data-page touch per iteration
  mul r2, r0
  addi r2, 12345
  mov r0, r2
  movi r4, 0x1FFF
  and r0, r4
  addi r0, wbuf
  loadb r4, [r0]
  add r1, r4
  storeb [r0], r1
  addi r3, -1
  cmpi r3, 0
  jnz w_work
  movi r4, wreq            ; response = {id, stamp, checksum}
  load r0, [r4]
  movi r4, wresp
  store [r4], r0
  movi r4, wreq
  load r0, [r4+4]
  movi r4, wresp
  store [r4+4], r0
  store [r4+8], r1
  movi r0, SYS_WRITE
  movi r1, 5
  movi r2, wresp
  movi r3, 12
  syscall
  jmp w_loop
w_exit:
  movi r0, SYS_EXIT
  movi r1, 0
  syscall
.bss
reqfds:  .space 8
respfds: .space 8
chbuf:   .space 4
reqrec:  .space 8
respbuf: .space 12
latbuf:  .space 8
wreq:    .space 8
wresp:   .space 12
wbuf:    .space 8192
