//! The `hetarch-serve` binary: a design-space query server over TCP.
//!
//! ```text
//! hetarch-serve serve [--addr HOST:PORT] [--workers N] [--executors N]
//!                     [--queue N] [--cache-cap N] [--cache PATH]
//! hetarch-serve query ADDR JSON     # one request, prints the reply
//! hetarch-serve shutdown ADDR       # asks a running server to drain
//! ```

use std::process::ExitCode;

use hetarch_devices::json::Json;
use hetarch_serve::{Client, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hetarch-serve serve [--addr HOST:PORT] [--workers N] [--executors N] \
[--queue N] [--cache-cap N] [--cache PATH]
  hetarch-serve query ADDR JSON
  hetarch-serve shutdown ADDR

  --cache PATH persists the characterization cache: loaded on boot (a
  missing file is a cold start), saved on graceful shutdown. A restarted
  server re-answers prior sweeps with zero new simulations.";

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value(&mut it)?,
            "--workers" => config.workers = parse_count(&value(&mut it)?)?,
            "--executors" => config.executors = parse_count(&value(&mut it)?)?,
            "--queue" => config.queue_capacity = parse_count(&value(&mut it)?)?,
            "--cache-cap" => config.cache_capacity = parse_count(&value(&mut it)?)?,
            "--cache" => config.library_path = Some(value(&mut it)?.into()),
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let server = Server::start(config).map_err(|e| format!("bind failed: {e}"))?;
    // The smoke test (and any supervisor) watches for this line.
    println!("listening on {}", server.local_addr());
    // Parks until a `shutdown` query arrives, then drains gracefully.
    server.wait();
    println!("shut down");
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let [addr, body] = args else {
        return Err(format!("query needs ADDR and JSON\n{USAGE}"));
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let reply = client
        .request_raw(body.as_bytes())
        .map_err(|e| format!("request failed: {e}"))?;
    let text = String::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
    println!("{text}");
    Ok(())
}

fn cmd_shutdown(args: &[String]) -> Result<(), String> {
    let [addr] = args else {
        return Err(format!("shutdown needs ADDR\n{USAGE}"));
    };
    let mut client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let reply = client
        .shutdown_server()
        .map_err(|e| format!("shutdown failed: {e}"))?;
    if reply.get("status").and_then(Json::as_str) == Some("ok") {
        println!("server shutting down");
        Ok(())
    } else {
        Err(format!("unexpected reply: {}", reply.render()))
    }
}

fn parse_count(text: &str) -> Result<usize, String> {
    text.parse::<usize>()
        .map_err(|_| format!("`{text}` is not a count"))
}
