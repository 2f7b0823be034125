package perfbench

import java.io.BufferedWriter
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run.
  *
  * Spans are opened and closed by the benchmark's own code around calls
  * into the program's public functions, on one thread. Each span records
  * its name, start, end, parent and root (the root span stands for one
  * request). Per-name aggregates (calls, total and self time) are kept
  * for every span; the first `capacity` spans are also kept verbatim and
  * written out by [[write]]. A disabled tracer records nothing.
  */
final class Tracer(val enabled: Boolean, capacity: Int = 1 << 19) {
  private val MaxNames = 64
  private val names = ArrayBuffer.empty[String]
  private val calls = new Array[Long](MaxNames)
  private val totalNs = new Array[Long](MaxNames)
  private val selfNs = new Array[Long](MaxNames)
  private val coarse = scala.collection.mutable.Map.empty[String, Vector[Long]]

  private val cap = if (enabled) capacity else 0
  private val logName = new Array[Int](cap)
  private val logParent = new Array[Int](cap)
  private val logRoot = new Array[Int](cap)
  private val logStart = new Array[Long](cap)
  private val logEnd = new Array[Long](cap)
  private var logged = 0
  private var dropped = 0L

  private val MaxDepth = 32
  private val stName = new Array[Int](MaxDepth)
  private val stLog = new Array[Int](MaxDepth)
  private val stStart = new Array[Long](MaxDepth)
  private val stChild = new Array[Long](MaxDepth)
  private var depth = 0
  private var root = -1

  /** Id of span name `name`, registering it on first use. */
  def id(name: String): Int = {
    val i = names.indexOf(name)
    if (i >= 0) i
    else {
      require(names.length < MaxNames, "too many span names")
      names += name
      names.length - 1
    }
  }

  def begin(name: Int): Unit = if (enabled) {
    val li =
      if (logged < cap) {
        val i = logged; logged += 1
        logName(i) = name
        logParent(i) = if (depth > 0) stLog(depth - 1) else -1
        if (depth == 0) root = i
        logRoot(i) = root
        i
      } else { dropped += 1; -1 }
    stName(depth) = name; stLog(depth) = li; stChild(depth) = 0L
    depth += 1
    val t = System.nanoTime()
    stStart(depth - 1) = t
    if (li >= 0) logStart(li) = t
  }

  def end(): Unit = if (enabled) {
    val t = System.nanoTime()
    depth -= 1
    val d = t - stStart(depth)
    val n = stName(depth)
    calls(n) += 1; totalNs(n) += d; selfNs(n) += d - stChild(depth)
    if (depth > 0) stChild(depth - 1) += d
    if (stLog(depth) >= 0) logEnd(stLog(depth)) = t
  }

  /** Times `body` as one span and keeps its duration, for calls outside
    * the hot loops; see [[durations]].
    */
  def span[A](name: String)(body: => A): A = {
    val t = System.nanoTime()
    begin(id(name))
    try body
    finally {
      end()
      if (enabled) coarse(name) = coarse.getOrElse(name, Vector.empty) :+ (System.nanoTime() - t)
    }
  }

  /** Mean duration per call in ns, 0 when the span never ran. */
  def meanNs(name: String): Double = {
    val i = names.indexOf(name)
    if (i < 0 || calls(i) == 0) 0.0 else totalNs(i).toDouble / calls(i)
  }

  /** Durations in ns of the spans named `name` opened with [[span]]. */
  def durations(name: String): Vector[Long] = coarse.getOrElse(name, Vector.empty)

  /** Writes the span log as CSV after the `header` comment lines, plus one
    * summary line per span name (calls, total and self time).
    */
  def write(path: Path, header: Seq[String]): Unit = {
    Files.createDirectories(path.getParent)
    val w: BufferedWriter = Files.newBufferedWriter(path, UTF_8)
    try {
      header.foreach(h => w.write(s"# $h\n"))
      names.indices.foreach { n =>
        w.write(s"# summary name=${names(n)} calls=${calls(n)} total_ns=${totalNs(n)} self_ns=${selfNs(n)}\n")
      }
      w.write(s"# logged=$logged dropped=$dropped\n")
      w.write("span,parent,root,name,start_ns,end_ns\n")
      var i = 0
      while (i < logged) {
        w.write(s"$i,${logParent(i)},${logRoot(i)},${names(logName(i))},${logStart(i)},${logEnd(i)}\n")
        i += 1
      }
    } finally w.close()
  }
}
