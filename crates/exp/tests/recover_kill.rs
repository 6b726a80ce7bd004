//! Kill-and-recover, end to end on the real binary: start `mcexp serve
//! --journal`, commit admits over TCP, SIGKILL the process mid-life,
//! restart it with `--recover`, and demand the recovered session answer
//! `query` **byte-identically** to the pre-crash reply. Also replays an
//! already-committed `op_id` after recovery: the verdict must come from
//! the idempotency window, not a second commit.

use mcsched_model::Task;
use mcsched_service::protocol::{Envelope, Request, RequestId};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const SESSION: &str = "crash-test";
const ALGORITHM: &str = "CU-UDP-ECDF";
const M: usize = 3;

/// Starts the server binary and returns the child plus the address it
/// bound (parsed from its own startup line, so port 0 works).
fn spawn_server(journal: &std::path::Path, recover: bool) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcsched-exp"));
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--journal"])
        .arg(journal)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    if recover {
        cmd.arg("--recover");
    }
    let mut child = cmd.spawn().expect("spawn mcexp serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server exited before announcing its address")
            .expect("readable stderr");
        if let Some(rest) = line.split("serving protocol v1 on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address token")
                .to_owned();
        }
    };
    // Keep draining stderr so the server never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl LineClient {
    fn connect(addr: &str) -> LineClient {
        let stream = TcpStream::connect(addr).expect("connect to server");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        LineClient {
            writer: stream,
            reader,
        }
    }

    /// Sends one request and returns the raw reply line.
    fn round_trip(&mut self, id: u64, request: Request) -> String {
        let line = Envelope::with_id(RequestId::Num(id), request).render() + "\n";
        self.writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        assert!(!reply.is_empty(), "server closed on request {id}");
        reply.trim_end().to_owned()
    }
}

fn open_session() -> Request {
    Request::OpenSession {
        algorithm: ALGORITHM.to_owned(),
        m: M,
        session: Some(SESSION.to_owned()),
    }
}

fn admit(task: Task, op: &str) -> Request {
    Request::Admit {
        task,
        op_id: Some(op.to_owned()),
    }
}

#[test]
fn sigkill_then_recover_restores_the_session_byte_identically() {
    let journal = std::env::temp_dir().join(format!("mcexp-recover-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    // Life 1: open a named session, commit three admits, snapshot the
    // query reply, then SIGKILL with everything only in the journal.
    let (mut server, addr) = spawn_server(&journal, false);
    let tasks = [
        Task::hi(1, 20, 2, 5).expect("valid task"),
        Task::lo(2, 10, 2).expect("valid task"),
        Task::hi(3, 40, 4, 9).expect("valid task"),
    ];
    let pre_crash_query;
    {
        let mut client = LineClient::connect(&addr);
        let opened = client.round_trip(0, open_session());
        assert!(opened.contains("\"type\":\"session\""), "{opened}");
        for (i, task) in tasks.iter().enumerate() {
            let reply = client.round_trip(1 + i as u64, admit(*task, &format!("op-{i}")));
            assert!(reply.contains("\"admitted\":true"), "{reply}");
        }
        pre_crash_query = client.round_trip(8, Request::Query { probe: None });
        assert!(pre_crash_query.contains("\"tasks\":3"), "{pre_crash_query}");
    }
    server.kill().expect("SIGKILL the server");
    let _ = server.wait();

    // Life 2: recover from the journal. The same named session must
    // answer the same query with the same bytes.
    let (mut server, addr) = spawn_server(&journal, true);
    {
        let mut client = LineClient::connect(&addr);
        let opened = client.round_trip(0, open_session());
        assert!(opened.contains("\"type\":\"session\""), "{opened}");
        let post_recover_query = client.round_trip(8, Request::Query { probe: None });
        assert_eq!(
            post_recover_query, pre_crash_query,
            "recovered session diverges from pre-crash state"
        );

        // Idempotency across the crash: replaying a committed op_id is
        // answered from the journal's window without a second commit.
        let replay = client.round_trip(9, admit(tasks[1], "op-1"));
        assert!(replay.contains("\"admitted\":true"), "{replay}");
        let after_replay = client.round_trip(8, Request::Query { probe: None });
        assert_eq!(
            after_replay, pre_crash_query,
            "an op_id replay must not double-commit"
        );
    }
    server.kill().expect("stop the recovered server");
    let _ = server.wait();
    let _ = std::fs::remove_file(&journal);
}
