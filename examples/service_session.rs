//! A complete admission-control client: spawn an in-process server,
//! open a session, stream admit/probe/remove/query requests over TCP,
//! and correlate the typed protocol-v1 replies by id.
//!
//! Against a standalone server (`mcexp serve --addr 127.0.0.1:7070`)
//! the same client code applies — swap the in-process spawn for the
//! server's address.
//!
//! Run with: `cargo run --example service_session`

use mcsched::prelude::*;
use mcsched::service::protocol::{parse_reply, Envelope, Reply, Request, RequestId};
use mcsched::service::server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A real server on a loopback port — exactly what `mcexp serve`
    // runs, minus the CLI.
    let server = Server::bind(AlgorithmRegistry::standard(), ServerConfig::default())?;
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());

    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut replies = BufReader::new(stream.try_clone()?);

    // One round trip per request; a pipelining client would batch the
    // writes and match replies back up by id (see `bench_service`).
    let mut next_id = 0u64;
    let mut ask = |stream: &mut TcpStream,
                   replies: &mut BufReader<TcpStream>,
                   request: Request|
     -> Result<Reply, Box<dyn std::error::Error>> {
        let id = RequestId::Num(next_id);
        next_id += 1;
        let line = Envelope::with_id(id.clone(), request).render();
        println!("→ {line}");
        writeln!(stream, "{line}")?;
        let mut reply_line = String::new();
        replies.read_line(&mut reply_line)?;
        let reply_line = reply_line.trim_end();
        println!("← {reply_line}");
        let (echoed, reply) = parse_reply(reply_line).map_err(std::io::Error::other)?;
        assert_eq!(echoed.as_ref(), Some(&id), "replies echo the request id");
        Ok(reply)
    };

    // The session: one live admission state per processor, verdicts
    // incremental across requests.
    ask(
        &mut stream,
        &mut replies,
        Request::OpenSession {
            algorithm: "CU-UDP-ECDF".to_owned(),
            m: 2,
            session: None,
        },
    )?;
    for task in [
        Task::hi(0, 10, 2, 4)?,
        Task::lo(1, 20, 6)?,
        Task::hi(2, 40, 8, 16)?,
    ] {
        let reply = ask(
            &mut stream,
            &mut replies,
            Request::Admit { task, op_id: None },
        )?;
        if let Reply::Admit(verdict) = reply {
            match verdict.processor {
                Some(p) => println!("   task {} placed on processor {p}", verdict.task),
                None => println!("   task {} rejected", verdict.task),
            }
        }
    }

    // A probe asks "would this fit?" without committing anything.
    ask(
        &mut stream,
        &mut replies,
        Request::Query {
            probe: Some(Task::lo(99, 10, 9)?),
        },
    )?;

    // Departures free capacity on the exact processor the task held.
    ask(
        &mut stream,
        &mut replies,
        Request::Remove {
            task_id: TaskId(0),
            op_id: None,
        },
    )?;
    ask(&mut stream, &mut replies, Request::Query { probe: None })?;
    ask(&mut stream, &mut replies, Request::Close)?;

    drop(replies);
    drop(stream);
    handle.shutdown();
    let stats = thread.join().expect("server thread")?;
    println!(
        "server: {} connection(s), {} request(s), {} error(s)",
        stats.connections, stats.requests, stats.errors
    );
    Ok(())
}
