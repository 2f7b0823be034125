package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.Path
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Command-line options of one benchmark run. */
final case class Opts(
    workload: String,
    seed: Long,
    /** Which dictionary draw this JVM trains and serves with; see [[Training]]. */
    draw: Int,
    seconds: Double,
    trace: Boolean,
    /** Self-test only: flip one byte of every coded record. */
    corrupt: Boolean,
    outDir: Path,
    commit: String,
    source: String
) {
  /** Seed of the served records; training draws from `seed` itself, so
    * the dictionary never sees the records it serves.
    */
  val serveSeed: Long = Opts.mix(seed)
}

object Opts {
  /** SplitMix64 finaliser: a fixed, well-spread seed derivation. */
  def mix(seed: Long): Long = {
    var z = seed + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def parse(args: Array[String]): Opts = {
    val m = args.grouped(2).map { case Array(k, v) => k.stripPrefix("--") -> v }.toMap
    Opts(
      workload = m("workload"),
      seed = m("seed").toLong,
      draw = m.getOrElse("draw", "0").toInt,
      seconds = m("seconds").toDouble,
      trace = m.getOrElse("trace", "0") == "1",
      corrupt = m.getOrElse("corrupt", "0") == "1",
      outDir = java.nio.file.Paths.get(m("out")),
      commit = m.getOrElse("commit", "unknown"),
      source = m.getOrElse("source", "unknown")
    )
  }
}

/** Round-trip accounting: every operation that returns data is compared
  * with its input; a mismatch or an exception counts as one failure.
  */
final class Checks {
  var attempted = 0L
  var failed = 0L
  def ok(cond: Boolean): Unit = { attempted += 1; if (!cond) failed += 1 }
  def error(n: Long): Unit = { attempted += n; failed += n }
}

/** Named metrics with units, in insertion order. */
final class Metrics {
  val values = mutable.LinkedHashMap.empty[String, (Double, String)]
  def put(name: String, value: Double, unit: String): Unit = values(name) = (value, unit)
}

/** Growable int sample buffer (latencies in ns), split into rounds. */
final class Samples {
  private var a = new Array[Int](1 << 16)
  private var n = 0
  private val roundEnds = mutable.ArrayBuffer.empty[Int]
  def add(v: Long): Unit = {
    if (n == a.length) a = java.util.Arrays.copyOf(a, n * 2)
    a(n) = math.min(v, Int.MaxValue.toLong).toInt
    n += 1
  }
  def size: Int = n

  /** Closes the current round, if it took any samples. */
  def endRound(): Unit = if (n > roundEnds.lastOption.getOrElse(0)) roundEnds += n

  /** Nearest-rank percentile `p` in [0, 100] of every sample, in ns. */
  def percentile(p: Double): Double = Samples.percentile(a, 0, n, p)

  /** Median over the rounds of each round's percentile `p`, in ns: the
    * tail of a typical round. A burst of outside load that hits a few
    * rounds moves it less than a percentile of every sample.
    */
  def roundPercentile(p: Double): Double = {
    endRound()
    val starts = 0 +: roundEnds.init
    Stats.median(starts.lazyZip(roundEnds).map((s, e) => Samples.percentile(a, s, e, p)).toSeq)
  }
}

object Samples {
  private def percentile(a: Array[Int], from: Int, until: Int, p: Double): Double = {
    require(until > from, "no samples")
    val s = java.util.Arrays.copyOfRange(a, from, until)
    java.util.Arrays.sort(s)
    val k = until - from
    s(math.min(k - 1, math.max(0, math.ceil(p / 100.0 * k).toInt - 1))).toDouble
  }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    val m = s.length / 2
    if (s.length % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  /** Total work over total time of rounds that each do the same work,
    * from each round's rate: their harmonic mean. Unlike a median it
    * counts every slow round, and it varies less from run to run.
    */
  def overall(rates: Seq[Double]): Double = {
    require(rates.nonEmpty, "no rounds")
    rates.length / rates.map(1 / _).sum
  }
}

/** JVM-wide garbage collection and allocation counters. Collections the
  * harness forces itself with [[fullGc]] are left out.
  */
object Jvm {
  final case class Snap(gcMs: Long, gcCount: Long, allocBytes: Long)

  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private var forcedMs, forcedCount = 0L

  private def gcTotals(): (Long, Long) = {
    val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (gcs.map(_.getCollectionTime).sum, gcs.map(_.getCollectionCount).sum)
  }

  def snap(): Snap = {
    val (ms, count) = gcTotals()
    val alloc = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum
    Snap(ms - forcedMs, count - forcedCount, alloc)
  }

  /** A full collection between rounds, not charged to the program. */
  def fullGc(): Unit = {
    val (ms0, count0) = gcTotals()
    System.gc()
    val (ms1, count1) = gcTotals()
    forcedMs += ms1 - ms0
    forcedCount += count1 - count0
  }

  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Heap in use after a full collection: the run's live set. */
  def liveHeapBytes(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  def put(m: Metrics, from: Snap, to: Snap): Unit = {
    m.put("jvm.gc_s", (to.gcMs - from.gcMs) / 1e3, "s")
    m.put("jvm.gc_count", (to.gcCount - from.gcCount).toDouble, "count")
    m.put("jvm.alloc_mb", (to.allocBytes - from.allocBytes) / 1e6, "MB")
    m.put("jvm.heap_mb", liveHeapBytes() / 1e6, "MB")
  }
}

/** Rates of one measured round; `ns` is the whole round's duration. */
final class RoundStats(val writeMbps: Double, val scanMbps: Double, val opsS: Double, val ns: Long)

object RoundStats {
  /** Every round's rates, for the detail line. */
  def detail(rs: Seq[RoundStats]): Map[String, Any] = Map(
    "rounds" -> rs.length,
    "round_write_mbps" -> rs.map(_.writeMbps), "round_scan_mbps" -> rs.map(_.scanMbps),
    "round_ops_s" -> rs.map(_.opsS))
}

object Report {
  /** The end-to-end metrics, all from the untraced rounds. */
  def endToEnd(m: Metrics, setupS: Double, ratio: Double, plain: Seq[RoundStats], point: Samples): Unit = {
    m.put("setup_s", setupS, "s")
    m.put("ratio", ratio, "coded/raw")
    m.put("write_mbps", Stats.overall(plain.map(_.writeMbps)), "MB/s")
    m.put("scan_mbps", Stats.overall(plain.map(_.scanMbps)), "MB/s")
    m.put("ops_s", Stats.overall(plain.map(_.opsS)), "ops/s")
    m.put("point_p99_us", point.roundPercentile(99) / 1e3, "us")
  }

  /** The traced run's shared metrics: the median point latency, which
    * flips between host-dependent levels from run to run and, for one
    * closed-loop client, says what `ops_s` says; and the median traced
    * round time against the median untraced one.
    */
  def traced(m: Metrics, traced: Seq[RoundStats], plain: Seq[RoundStats], point: Samples): Unit = {
    m.put("point_p50_us", point.percentile(50) / 1e3, "us")
    m.put("trace.overhead_pct",
      (Stats.median(traced.map(_.ns.toDouble)) / Stats.median(plain.map(_.ns.toDouble)) - 1) * 100, "%")
  }
}

object Rounds {
  /** One warm-up round per tracer (round -1), then measured rounds 0, 1,
    * 2, ... until `seconds` have passed. The tracers take turns round by
    * round, so they share the time, and drift in machine speed hits each
    * of them alike.
    * Each round starts after a full collection so that garbage from the
    * last one is not charged to it. Returns the measured rounds of each
    * tracer.
    */
  def measure(seconds: Double, tracers: Seq[Tracer])(round: (Int, Tracer) => RoundStats)
      : Seq[Vector[RoundStats]] = {
    tracers.foreach { t => Jvm.fullGc(); round(-1, t) }
    val deadline = System.nanoTime() + (seconds * 1e9).toLong
    val out = tracers.map(_ => Vector.newBuilder[RoundStats])
    var n = 0
    while (n == 0 || System.nanoTime() < deadline) {
      tracers.indices.foreach { i => Jvm.fullGc(); out(i) += round(n, tracers(i)) }
      n += 1
    }
    out.map(_.result())
  }
}

/** Self-test fault: flips one byte of a coded record. */
object Corrupt {
  def flip(b: Array[Byte]): Array[Byte] = {
    val c = b.clone()
    if (c.nonEmpty) c(c.length - 1) = (c(c.length - 1) ^ 0x21).toByte
    c
  }
}

/** Zipfian ranks (Gray et al., as in YCSB) mapped through a seeded
  * permutation so that the hot keys are spread over the keyspace.
  */
final class Zipf(n: Int, theta: Double, rnd: scala.util.Random) {
  private val zetan = (1 to n).iterator.map(i => 1.0 / math.pow(i.toDouble, theta)).sum
  private val zeta2 = 1.0 + 1.0 / math.pow(2.0, theta)
  private val alpha = 1.0 / (1.0 - theta)
  private val eta = (1 - math.pow(2.0 / n, 1 - theta)) / (1 - zeta2 / zetan)
  private val perm = rnd.shuffle((0 until n).toVector).toArray

  def next(): Int = {
    val u = rnd.nextDouble()
    val uz = u * zetan
    val rank =
      if (uz < 1.0) 0
      else if (uz < 1.0 + math.pow(0.5, theta)) 1
      else math.min(n - 1, (n * math.pow(eta * u - eta + 1, alpha)).toInt)
    perm(rank)
  }
}

/** Minimal JSON rendering for the result line and the trace header. */
object Json {
  def apply(v: Any): String = v match {
    case null                   => "null"
    case s: String              => quote(s)
    case b: Boolean             => b.toString
    case d: Double              => if (d.isNaN || d.isInfinite) "null" else d.toString
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case m: collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ": " + apply(x) }.mkString("{", ", ", "}")
    case xs: Iterable[_]        => xs.map(apply).mkString("[", ", ", "]")
    case other                  => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c    => sb.append(c)
    }
    sb.append('"').toString
  }
}
