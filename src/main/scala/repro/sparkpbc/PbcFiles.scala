package repro.sparkpbc

import java.io.{BufferedOutputStream, DataOutputStream, EOFException, FileOutputStream}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, Paths, StandardOpenOption}
import repro.core.PatternDictionary

/** On-disk layout of a `.pbc` file — the container behind the `pbc`
  * DataSourceV2 format.
  *
  * {{{
  *   "PBC1"                      4 B   magic
  *   dictLen                     4 B   big-endian
  *   dict bytes                        serialized PatternDictionary
  *   record payloads                   back-to-back PbcCodec outputs
  *   offsets                 n * 8 B   absolute offset of each record
  *   offsetsStart                8 B
  *   nRecords                    4 B
  *   "PBCE"                      4 B   end magic
  * }}}
  *
  * The trailing fixed-width offset index is what gives *per-record
  * random access*: [[readRecord]] fetches record `i` alone, in three
  * positional reads (footer, index entry, payload), so only it is
  * decompressed — the paper's core advantage over block-wise compression
  * (§7.2.2).
  *
  * Every reader validates the footer first; a truncated or mangled file
  * fails with an `IllegalArgumentException` naming the path.
  */
object PbcFiles {
  private val Magic = "PBC1".getBytes("US-ASCII")
  private val EndMagic = "PBCE".getBytes("US-ASCII")

  final class Writer(path: Path, dictBytes: Array[Byte]) {
    private val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile)))
    private val offsets = scala.collection.mutable.ArrayBuffer.empty[Long]
    private var pos: Long = 0L

    out.write(Magic); pos += 4
    out.writeInt(dictBytes.length); pos += 4
    out.write(dictBytes); pos += dictBytes.length

    def append(record: Array[Byte]): Unit = {
      offsets += pos
      out.write(record)
      pos += record.length
    }

    def close(): Long = {
      val offsetsStart = pos
      offsets.foreach(out.writeLong)
      out.writeLong(offsetsStart)
      out.writeInt(offsets.size)
      out.write(EndMagic)
      out.close()
      offsets.size.toLong
    }
  }

  final case class Loaded(dict: PatternDictionary, records: Vector[Array[Byte]])

  /** Load a whole file (scan path). */
  def readAll(path: Path): Loaded = {
    val bytes = Files.readAllBytes(path)
    val tail = parseTail(path, bytes.length, ByteBuffer.wrap(bytes, bytes.length - TailBytes, TailBytes))
    val bb = ByteBuffer.wrap(bytes)
    val dictLen = checkHeader(path, bb, tail)
    val dictBytes = new Array[Byte](dictLen); bb.get(dictBytes)
    val dict = PatternDictionary.deserialize(dictBytes)
    val n = tail.n
    val offs = ByteBuffer.wrap(bytes, tail.offsetsStart.toInt, n * 8)
    val offsets = Array.fill(n)(offs.getLong)
    val records = (0 until n).map { i =>
      val start = offsets(i)
      val end = if (i + 1 < n) offsets(i + 1) else tail.offsetsStart
      checkSpan(path, i, start, end, tail)
      java.util.Arrays.copyOfRange(bytes, start.toInt, end.toInt)
    }.toVector
    Loaded(dict, records)
  }

  /** Number of records without loading payloads. */
  def recordCount(path: Path): Int = withChannel(path)(ch => readTail(path, ch).n)

  /** Random access: read and return only record `i`'s compressed bytes
    * (three positional reads; neighbouring records are never touched).
    */
  def readRecord(path: Path, i: Int): Array[Byte] = withChannel(path) { ch =>
    val tail = readTail(path, ch)
    require(i >= 0 && i < tail.n, s"$path: record $i out of range [0,${tail.n})")
    val last = i + 1 == tail.n
    val entry = pread(ch, tail.offsetsStart + i.toLong * 8, if (last) 8 else 16)
    val start = entry.getLong
    val end = if (last) tail.offsetsStart else entry.getLong
    checkSpan(path, i, start, end, tail)
    pread(ch, start, (end - start).toInt).array()
  }

  /** Dictionary bytes of a file (shared by every record in it). */
  def readDict(path: Path): PatternDictionary = withChannel(path) { ch =>
    val tail = readTail(path, ch)
    val dictLen = checkHeader(path, pread(ch, 0, 8), tail)
    PatternDictionary.deserialize(pread(ch, 8, dictLen).array())
  }

  /** All part files of a dataset directory, deterministically ordered. */
  def listParts(dir: String): Vector[Path] = {
    import scala.jdk.CollectionConverters._
    val d = Paths.get(dir)
    if (!Files.isDirectory(d)) return Vector.empty
    val s = Files.list(d)
    try s.iterator().asScala
      .filter(_.getFileName.toString.endsWith(".pbc")).toVector.sortBy(_.toString)
    finally s.close()
  }

  // ---------------- validation and positional reads ----------------

  private val TailBytes = 16
  /** Smallest well-formed file: header, empty dictionary, no records, tail. */
  private val MinFileBytes = 8 + TailBytes
  private val EndMagicWord = ByteBuffer.wrap(EndMagic).getInt

  /** The footer: where the offset index starts, and how many records. */
  private final case class Tail(offsetsStart: Long, n: Int)

  /** Validate the footer `tail` (its last 16 bytes) of the `size`-byte file
    * `path`. `tail` is only evaluated once `size` is known to hold one.
    */
  private def parseTail(path: Path, size: Long, tail: => ByteBuffer): Tail = {
    require(size >= MinFileBytes, s"$path: truncated pbc file ($size B)")
    val bb = tail
    val offsetsStart = bb.getLong
    val n = bb.getInt
    require(bb.getInt == EndMagicWord, s"$path: bad end magic")
    require(n >= 0 && offsetsStart >= 8 && offsetsStart + 8L * n == size - TailBytes,
      s"$path: corrupt footer (offsetsStart=$offsetsStart, n=$n, size=$size)")
    Tail(offsetsStart, n)
  }

  private def readTail(path: Path, ch: FileChannel): Tail = {
    val size = ch.size()
    parseTail(path, size, pread(ch, size - TailBytes, TailBytes))
  }

  /** Check the start magic of `head` and return the dictionary length that
    * follows it; the dictionary must end before the offset index.
    */
  private def checkHeader(path: Path, head: ByteBuffer, tail: Tail): Int = {
    val magic = new Array[Byte](4); head.get(magic)
    require(java.util.Arrays.equals(magic, Magic), s"$path: bad magic")
    val dictLen = head.getInt
    require(dictLen >= 0 && 8L + dictLen <= tail.offsetsStart, s"$path: bad dictionary length $dictLen")
    dictLen
  }

  private def checkSpan(path: Path, i: Int, start: Long, end: Long, tail: Tail): Unit =
    require(8 <= start && start <= end && end <= tail.offsetsStart,
      s"$path: record $i spans [$start,$end) outside [8,${tail.offsetsStart})")

  private def withChannel[A](path: Path)(f: FileChannel => A): A = {
    val ch = FileChannel.open(path, StandardOpenOption.READ)
    try f(ch) finally ch.close()
  }

  /** Read exactly `n` bytes at `pos`, looping on short reads. */
  private def pread(ch: FileChannel, pos: Long, n: Int): ByteBuffer = {
    val buf = ByteBuffer.allocate(n)
    while (buf.hasRemaining)
      if (ch.read(buf, pos + buf.position()) < 0) throw new EOFException(s"end of file before byte ${pos + n}")
    buf.flip()
    buf
  }
}
