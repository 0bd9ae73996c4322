//! Bulk transfer inside a TLS channel: the SSL leg of `bulk_flow`.
//!
//! The same fixed-size flow as `websvc::loadgen::BulkSendApp` →
//! `IperfServerApp`, but the sender seals the stream into TLS records
//! with `websvc::secure::Channel` and the receiver opens them, as an
//! OpenSSL tunnel would. One DHE-RSA handshake, then record seal/open
//! per chunk: the TLS-record counterpart of HIP's per-packet ESP.

use netsim::host::{App, AppEvent, HostApi};
use netsim::tcp::TcpEvent;
use netsim::{SimDuration, SimTime, SockId};
use sim_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use std::any::Any;
use std::collections::HashMap;
use std::net::IpAddr;
use tls_sim::{Certificate, TlsCosts};
use websvc::secure::Channel;

/// Plaintext bytes per TLS record (TLS's maximum fragment).
pub const RECORD: usize = 16 * 1024;
/// Keep this many wire bytes queued in TCP, like `BulkSendApp`.
const HIGH_WATER: usize = 256 * 1024;
const TIMER_START: u64 = 1;
const TIMER_TICK: u64 = 2;

/// Sends exactly `total` bytes through a TLS client channel, then closes.
pub struct TlsBulkSendApp {
    target: (IpAddr, u16),
    total: u64,
    ca: RsaPublicKey,
    costs: TlsCosts,
    /// Wait this long before connecting.
    pub start_delay: SimDuration,
    sock: Option<SockId>,
    channel: Option<Channel>,
    /// Plaintext bytes sealed so far.
    pub bytes_sent: u64,
    /// The channel failed (bad certificate, bad record, reset).
    pub failed: bool,
}

impl TlsBulkSendApp {
    /// Streams `total` bytes to `target`, trusting `ca`.
    pub fn new(target: (IpAddr, u16), total: u64, ca: RsaPublicKey, costs: TlsCosts) -> Self {
        TlsBulkSendApp {
            target,
            total,
            ca,
            costs,
            start_delay: SimDuration::ZERO,
            sock: None,
            channel: None,
            bytes_sent: 0,
            failed: false,
        }
    }

    fn top_up(&mut self, api: &mut HostApi) {
        let (Some(sock), Some(ch)) = (self.sock, self.channel.as_mut()) else {
            return;
        };
        if !ch.ready() || self.bytes_sent >= self.total {
            return;
        }
        let chunk = [0x55u8; RECORD];
        while self.bytes_sent < self.total && api.tcp_buffered(sock) < HIGH_WATER {
            let n = (self.total - self.bytes_sent).min(RECORD as u64) as usize;
            ch.send(sock, &chunk[..n], api);
            self.bytes_sent += n as u64;
        }
        if self.bytes_sent >= self.total {
            api.tcp_close(sock);
        } else {
            api.set_timer(SimDuration::from_millis(5), TIMER_TICK);
        }
    }
}

impl App for TlsBulkSendApp {
    fn start(&mut self, api: &mut HostApi) {
        api.set_timer(self.start_delay, TIMER_START);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Timer { token: TIMER_START } => {
                self.sock = api.tcp_connect(self.target.0, self.target.1);
                self.failed |= self.sock.is_none();
            }
            AppEvent::Tcp(TcpEvent::Connected(sock)) => {
                self.channel = Some(Channel::tls_client(self.ca.clone(), self.costs, sock, api));
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(ch) = self.channel.as_mut() else {
                    return;
                };
                let out = ch.on_bytes(sock, &raw, api);
                self.failed |= out.failed;
                if out.became_ready {
                    self.top_up(api);
                }
            }
            AppEvent::Timer { token: TIMER_TICK } => self.top_up(api),
            AppEvent::Tcp(TcpEvent::ConnectFailed(_) | TcpEvent::Reset(_)) => self.failed = true,
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Accepts TLS connections on `port` and counts the plaintext received.
pub struct TlsSinkApp {
    port: u16,
    cert: Certificate,
    keys: RsaKeyPair,
    costs: TlsCosts,
    channels: HashMap<SockId, Channel>,
    /// Plaintext bytes received.
    pub bytes: u64,
    /// First plaintext arrival.
    pub first_byte: Option<SimTime>,
    /// Last plaintext arrival.
    pub last_byte: Option<SimTime>,
    /// A channel failed.
    pub failed: bool,
}

impl TlsSinkApp {
    /// Serves `cert` (with its private `keys`) on `port`.
    pub fn new(port: u16, cert: Certificate, keys: RsaKeyPair, costs: TlsCosts) -> Self {
        TlsSinkApp {
            port,
            cert,
            keys,
            costs,
            channels: HashMap::new(),
            bytes: 0,
            first_byte: None,
            last_byte: None,
            failed: false,
        }
    }
}

impl App for TlsSinkApp {
    fn start(&mut self, api: &mut HostApi) {
        assert!(
            api.tcp_listen(self.port),
            "tls sink: port {} taken",
            self.port
        );
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut HostApi) {
        match ev {
            AppEvent::Tcp(TcpEvent::Accepted { sock, .. }) => {
                let ch = Channel::tls_server(self.cert.clone(), self.keys.clone(), self.costs);
                self.channels.insert(sock, ch);
            }
            AppEvent::Tcp(TcpEvent::Data(sock)) => {
                let raw = api.tcp_recv(sock);
                let Some(ch) = self.channels.get_mut(&sock) else {
                    return;
                };
                let out = ch.on_bytes(sock, &raw, api);
                self.failed |= out.failed;
                if !out.app_data.is_empty() {
                    self.bytes += out.app_data.len() as u64;
                    self.first_byte.get_or_insert(api.now());
                    self.last_byte = Some(api.now());
                }
            }
            AppEvent::Tcp(TcpEvent::Reset(_)) => self.failed = true,
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
